(** Minimal JSON values: enough to print result lines and files, and to
    read back [BENCHMARK.json] and a child run's result line. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val parse : string -> t
(** @raise Failure on malformed input. *)

val to_string : t -> string
(** Compact rendering.  Integral numbers print without a fraction;
    others print with the fewest digits that read back to the same
    float.  Non-finite numbers are a [Failure]: JSON cannot hold them. *)

val member : string -> t -> t
(** Field of an object; [Null] when absent or not an object. *)

val to_list : t -> t list
(** Elements of an array; [[]] otherwise. *)

val to_num : t -> float
(** @raise Failure when not a number. *)

val to_str : t -> string
(** @raise Failure when not a string. *)
