(** Exporters over a {!Tracer} dump.

    [chrome] renders the Trace Event Format JSON that [chrome://tracing]
    and Perfetto load: one complete ("ph":"X") event per span, one
    instant ("ph":"i") event per {!instant} (the machine's flat trace
    records, [Mv_engine.Trace.instants]), and thread-name metadata per
    track.  Timestamps are virtual cycles converted to microseconds at
    the simulated clock rate.  The JSON is hand-rolled (the image
    carries no JSON library) and deterministic: events are ordered by
    timestamp, then span id, with instants after spans in list order.

    [folded] renders collapsed flamegraph stacks
    ("track;outer;inner <self-cycles>" per line, sorted), where each
    span's self time is its duration minus that of its children. *)

type instant = {
  in_name : string;
  in_cat : string;
  in_track : int;
  in_ts : Mv_util.Cycles.t;
  in_detail : string;  (** rendered as [args.detail]; omitted when empty *)
}
(** A zero-duration event.  Its track is labelled only if the tracer
    knows it ({!Tracer.track}). *)

val chrome :
  ?process_name:string -> ?metrics:Metrics.t -> instants:instant list -> Tracer.t -> string

val folded : Tracer.t -> string
