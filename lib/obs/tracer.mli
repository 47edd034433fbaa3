(** Typed, span-based tracing with causal parent links.

    A span is a named interval of virtual time on a {e track} (one track
    per simulated thread).  Spans form a tree: every span records the id
    of its parent, and ids propagate across ROS<->HRT crossings so a
    forwarded syscall's request, its fabric batch, the poller-pool
    service and the reply all hang off one causal root.  Timestamps are
    virtual cycles ({!Mv_util.Cycles}), never host time.

    Disabled tracing costs one branch per call: no allocation, no
    formatting, no table lookups.  All recording is host-side only — the
    tracer never charges simulated cycles, so enabling it cannot perturb
    schedules or benchmark numbers. *)

type span = {
  sp_id : int;
  sp_parent : int;  (** 0 = no parent (root span) *)
  sp_name : string;
  sp_cat : string;  (** segment class: "crossing", "transport", ... *)
  sp_track : int;
  sp_ts : Mv_util.Cycles.t;  (** start, virtual cycles *)
  sp_dur : Mv_util.Cycles.t;
  sp_args : (string * string) list;
}

type t

val create :
  ?enabled:bool ->
  ?capacity:int ->
  now:(unit -> Mv_util.Cycles.t) ->
  track:(unit -> int) ->
  ?track_name:(unit -> string) ->
  unit ->
  t
(** [now] supplies virtual-cycle timestamps; [track] identifies the
    current simulated thread (any stable int; -1 for "outside thread
    context" is conventional).  [track_name], consulted once per new
    track, labels tracks in exports.  [capacity] bounds the number of
    {e completed} spans retained; excess spans are counted in
    {!dropped} instead of stored. *)

val enabled : t -> bool
val set_enabled : t -> bool -> unit

(** {1 Recording} *)

val begin_span : t -> ?parent:int -> name:string -> cat:string -> unit -> int
(** Open a span on the current track and push it on that track's ambient
    stack.  [parent] defaults to the innermost open span of the track
    (0 = root if none).  Returns the span id, or 0 when disabled. *)

val end_span : t -> int -> unit
(** Close an open span (id 0 is ignored, so
    [end_span t (begin_span t ...)] is safe when disabled).  Closing a
    span that is not the innermost also closes any still-open spans
    nested inside it. *)

val with_span : t -> ?parent:int -> name:string -> cat:string -> (unit -> 'a) -> 'a
(** [begin_span]/[end_span] around a callback, exception-safe.  When
    disabled this is exactly one branch plus the call. *)

val complete : t -> ?parent:int -> ?args:(string * string) list ->
  name:string -> cat:string -> ts:Mv_util.Cycles.t -> dur:Mv_util.Cycles.t -> unit -> int
(** Record an already-measured interval directly (used for segments whose
    boundaries are observed from both sides of a crossing).  Returns the
    span id, 0 when disabled. *)

val annotate : t -> string -> string -> unit
(** Attach a key=value argument to the innermost open span of the
    current track; dropped if no span is open (or disabled). *)

val track : t -> int
(** The current track, registered (and labelled) for exports even if no
    span is ever opened on it — how a flat trace record names the
    thread that emitted it.  Consulted whether or not the tracer is
    enabled. *)

val current : t -> int
(** Id of the innermost open span on the current track; 0 if none.
    Capture it before handing work to another thread, then pass it as
    [?parent] on the far side — this is how causality crosses the
    ROS<->HRT boundary. *)

(** {1 Reading back} *)

val spans : t -> span list
(** Completed spans, oldest first. *)

val track_label : t -> int -> string
val tracks : t -> int list
(** Tracks seen, ascending. *)

val open_count : t -> int
(** Spans begun but not yet ended (should be 0 after a quiesced run). *)

val span_count : t -> int
val dropped : t -> int
val clear : t -> unit
