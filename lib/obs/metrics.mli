(** A namespaced metrics registry: counters, gauges, and latency
    recorders, keyed ["namespace/name"] (namespaces: [fabric], [mmu],
    [tlb], [walk_cache], [mm], [event_channel], ...).

    Registration is idempotent — [counter m ~ns name] returns the same
    cell every time — but resolution walks the string-keyed index, so
    hot paths must resolve once and hold the handle.  Updating a handle
    is a single field store, and nothing allocates after registration.
    Latency recorders are {!Mv_util.Stats} accumulators.  Registrations
    are never dropped, so a handle stays live for the registry's
    lifetime. *)

type t

type counter
type gauge
type latency

val create : unit -> t

val counter : t -> ns:string -> string -> counter
val inc : counter -> ?by:int -> unit -> unit
val set_counter : counter -> int -> unit
val counter_value : counter -> int

val gauge : t -> ns:string -> string -> gauge
val set_gauge : gauge -> float -> unit
val gauge_value : gauge -> float

val latency : t -> ns:string -> string -> latency
val observe : latency -> float -> unit
(** Record one sample (cycles). *)

val latency_stats : latency -> Mv_util.Stats.summary

val latency_percentile : latency -> float -> float
(** Interpolated percentile ([p] in [\[0,100\]]) over the recorded
    samples; 0 when none have been observed.  Served from
    {!Mv_util.Stats}'s cached sorted array, so tail queries after a run
    (p50/p95/p99) sort the samples once. *)

(** {1 Reading back} *)

type value =
  | Counter_v of int
  | Gauge_v of float
  | Latency_v of Mv_util.Stats.summary

val to_list : t -> (string * value) list
(** All registered metrics, sorted by full name. *)

val find : t -> string -> value option
val pp : Format.formatter -> t -> unit
