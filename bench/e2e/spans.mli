(** Host-time spans recorded by the benchmark around its own calls into
    each layer.  A span has a name, a start and end in host seconds, the
    minor words the OCaml heap allocated meanwhile, and a parent (the
    innermost span open when it began).  Spans stay in memory until
    {!clear}; nothing is written while a pass runs.

    Disabled recording costs one branch per call. *)

type span = {
  id : int;
  parent : int;  (** 0 = root *)
  name : string;
  t0 : float;  (** host seconds *)
  t1 : float;
  words : float;  (** minor words allocated between start and end *)
}

type t

val create : unit -> t
val set_enabled : t -> bool -> unit

val with_span : t -> string -> (unit -> 'a) -> 'a
(** Run the callback inside a span (exception-safe). *)

val last : t -> string -> span option
(** The most recently completed span with this name. *)

val spans : t -> span list
(** Completed spans, oldest first. *)

val clear : t -> unit

val self_seconds : span list -> span -> float
(** A span's duration minus the part its direct children cover. *)

val to_chrome : span list -> string
(** Chrome trace-event JSON (complete events, microseconds). *)
