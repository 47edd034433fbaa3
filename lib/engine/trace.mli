(** Typed event tracing.

    Components emit {e typed} events ({!payload}); the trace renders each
    to a stable categorized record at emit time.  Tests assert on the
    records (e.g. the paper's requirement that the page-fault trace of an
    application under Multiverse be identical to its native trace) and
    debugging dumps them; the record shapes — category names and message
    formats — are a compatibility surface and do not change when new
    payload constructors are added.

    Trace is the one store of flat event records; spans live in
    [Mv_obs.Tracer] (see [Machine.obs]), and [Mv_obs.Export.chrome]
    renders the records as instants next to the spans ({!instants}).
    Disabled tracing costs one branch per emit: no rendering, no
    allocation. *)

type record = {
  at : Mv_util.Cycles.t;
  track : int;  (** the emitting thread's track ({!Mv_obs.Tracer.track}) *)
  category : string;
  message : string;
}

(** One typed event.  Each constructor records under a stable category
    ("pagefault", "fatal", "fault", "resilience");
    [Message] is the escape hatch carrying a preformatted string. *)
type payload =
  | Page_fault of { pid : int; vma : string option; page_off : int; addr : int; write : bool }
      (** [vma = Some kind] renders the address-layout-independent form
          ["pid=… vma=kind+off w=…"]; [None] falls back to the raw
          address. *)
  | Fatal_signal of { signal : string; pid : int; addr : int }
  | Fault_injected of { site : string; ctx : string }
  | Channel_retry of { attempt : int; backoff : int; kind : string }
  | Channel_exhausted of { retries : int; kind : string }
  | Server_survived of { msg : string }
  | Degrade_sync_to_async
  | Channel_marked_failed
  | Watchdog_respawn of { was : string }
  | Fallback_sync_to_async of { kind : string }
  | Reroute of { kind : string; spurious_errnos : bool }
  | Ride_timeout of { kind : string }
  | Errno_retry of { attempt : int; kind : string }
  | Overload_shed of { kind : string; endpoint : string }
      (** Admission control returned a typed [Overload] reply (category
          "overload"). *)
  | Shed_mode of { on : bool }
      (** The load-shedding watchdog crossed the high-water mark (on) or
          drained below the low-water mark (off). *)
  | Restore_async_to_sync
      (** A shed-mode Sync->Async flip was undone on drain. *)
  | Repartition of { core : int; src : int; dst : int; moved : int }
      (** Core lending moved [core] between partitions, re-homing [moved]
          threads (category "partition"). *)
  | Message of { category : string; text : string }

val render : payload -> string
(** The record message a payload emits — exposed so exporters can render
    typed events without an enabled trace. *)

type t

val create : ?enabled:bool -> ?capacity:int -> unit -> t
(** The trace keeps full history up to [capacity] records (default
    100_000); past it the oldest half is discarded, so memory stays
    bounded on long traced runs. *)

val enable : t -> bool -> unit
val enabled : t -> bool

val emit_event : t -> at:Mv_util.Cycles.t -> track:int -> payload -> unit
(** Record a typed event.  Rendering happens only when enabled. *)

val records : t -> record list
(** In emission order (oldest first).  The list is memoized until the
    next emit, so repeated calls are O(1). *)

val records_in : t -> category:string -> record list
(** In emission order; served from a per-category index maintained on
    emit, so repeated queries don't re-filter the whole trace. *)

val count_in : t -> category:string -> int
(** O(1) count of records in a category. *)

val instants : t -> Mv_obs.Export.instant list
(** Every record as a Chrome instant on its track, oldest first: named
    and categorized by its category, its message as the detail. *)

val pp : Format.formatter -> t -> unit
