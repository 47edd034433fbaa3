(** Discrete-event simulation core: the virtual clock and event loop. *)

type t

val create : unit -> t

val now : t -> Mv_util.Cycles.t
(** Current virtual time (the timestamp of the event being processed). *)

val schedule_at : t -> Mv_util.Cycles.t -> (unit -> unit) -> unit
(** Fire a callback at an absolute virtual time.  Scheduling in the past is
    an error ([Invalid_argument]); simultaneous events fire in scheduling
    order. *)

val schedule_after : t -> Mv_util.Cycles.t -> (unit -> unit) -> unit
(** Relative to [now]. *)

val run : t -> unit
(** Process events until the queue drains. *)

val run_bounded : t -> max_events:int -> bool
(** Like {!run}, but process at most [max_events] events; returns [true]
    if the queue drained (quiescence) and [false] if the budget ran out
    first — the model checker's livelock guard. *)

val run_until : t -> Mv_util.Cycles.t -> unit
(** Process events with timestamps [<= limit]; the clock ends at [limit] or
    at quiescence, whichever is earlier. *)

val step : t -> bool
(** Process one event; [false] if the queue was empty. *)

val events_processed : t -> int
