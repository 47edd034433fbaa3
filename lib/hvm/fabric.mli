(** The forwarding fabric: one typed transport layer for every ROS<->HRT
    interaction (forwarded syscalls, replicated page faults, signal
    injection), built on {!Event_channel}.

    The fabric adds three things over raw per-group channels:

    - {b Request batching + doorbell suppression.}  While a leader call is
      in flight on an endpoint, subsequent forwarded calls from the same
      execution group enqueue into a shared-page ring instead of raising
      their own doorbell; the server drains the whole ring in one wakeup
      ("Look Mum, no VM Exits!", arXiv:1705.06932 — exit suppression on
      partitioned cores).  A rider pays shared-memory stores (a fraction of
      the sync-channel cost) instead of a hypercall plus a round trip.

    - {b Routing.}  Per-group channels become fabric {e endpoints}, served
      by a shared ROS-side poller pool instead of one dedicated
      partner-busy-loop per group, so concurrent execution groups scale
      past the number of partner threads.  Channel doorbells enqueue the
      endpoint on a run queue; any idle poller picks it up.

    - {b HRT-local fast paths.}  A promotion table services repeat
      lower-half faults post-merge and vdso-like calls locally without
      touching the transport at all (the paper's PML4 re-merge escape
      hatch, generalized).

    The resilience machinery introduced with the fault-injection harness —
    per-call timeout/retry at the channel layer, spurious-errno retry for
    forwarded syscalls, Sync->Async degradation, ROS-native rerouting when
    a channel dies, and a watchdog that respawns killed servers — lives
    here once, instead of being copied into every caller.  With
    {!Mv_faults.Fault_plan.none} every resilience path is dormant and the
    fabric is cycle-neutral relative to direct channel calls. *)

type t
type endpoint

(** {1 Overload model}

    Off by default: with no {!admission} installed every path below is
    dormant and the fabric behaves byte-identically to previous
    revisions.  Installing a policy arms four mechanisms:

    - {b Bounded slot rings.}  An endpoint's batching ring holds at most
      [ad_ring_capacity] pending slots; admission reserves a slot before
      the request may engage the transport.
    - {b Token-bucket admission per execution group.}  Each endpoint (one
      per group) refills at [ad_rate] tokens/cycle up to [ad_burst], so
      over any window of [w] cycles a group is admitted at most
      [burst + rate*w] requests and one bursty tenant cannot monopolize
      the shared poller pool.
    - {b Shed-or-block.}  A refused request either receives a typed
      [Overload] reply that the guest-side stub retries with exponential
      backoff ({!Shed}; {!offer} surfaces the reply to callers that can
      drop work), or parks in the endpoint's FIFO admission queue of
      explicit capacity [ad_queue_capacity], applying backpressure to the
      enqueuing group ({!Block}; queue overflow sheds).
    - {b Load-shedding watchdog.}  Every heartbeat, ring occupancy is
      compared against a fixed high/low-water hysteresis: reaching three
      quarters of [ad_ring_capacity] flips Sync endpoints to Async and
      widens the doorbell-suppression window; draining to a quarter
      restores both. *)

type overload_policy = Shed | Block

type admission = {
  ad_policy : overload_policy;
  ad_ring_capacity : int;
  ad_queue_capacity : int;
  ad_rate : float;
  ad_burst : int;
  ad_shed_retries : int;
}

type overload = { ov_kind : string; ov_endpoint : string; ov_sheds : int }
(** The typed [Overload] reply: which request was refused, where, and how
    many sheds (initial refusal plus backoff retries) it absorbed. *)

val make_admission :
  ?policy:overload_policy ->
  ?ring_capacity:int ->
  ?queue_capacity:int ->
  ?rate:float ->
  ?burst:int ->
  ?shed_retries:int ->
  unit ->
  admission
(** Validated constructor (defaults: Shed, ring 8, queue 16, 1e-4
    tokens/cycle, burst 4, 6 retries).
    @raise Invalid_argument on a non-positive ring capacity or a negative
    queue capacity. *)

val create : ?faults:Mv_faults.Fault_plan.t -> Mv_engine.Machine.t -> kind:Event_channel.kind -> t
(** The poller watchdog's period is four async round trips; the watchdog
    only runs under an enabled fault plan or an installed admission
    policy. *)

type placement =
  | Spread
      (** One global poller group serves every endpoint; the caller
          spreads server-side cores by its own rule.  The default. *)
  | Affine
      (** Keep each execution group on one socket: the caller puts a
          group's server-side core on the ROS core nearest its HRT core
          ({!Mv_hw.Topology.nearest_ros_core}), and the poller pool is
          sharded per socket — one poller group per socket that owns pool
          cores, each endpoint routed to its server core's socket group —
          so doorbells are answered locally and wake tokens never cross
          the interconnect. *)
(** Execution-group placement, shared by every fabric client.  Neither
    side dominates: see DESIGN §6. *)

val start_pool :
  t ->
  spawn:(name:string -> core:int -> (unit -> unit) -> Mv_engine.Exec.thread) ->
  cores:int list ->
  ?placement:placement ->
  unit ->
  unit
(** Spawn the shared ROS-side poller pool of [max 2 (length cores)]
    pollers, spreading them round-robin over [cores].  Under [Affine]
    placement the pool is sharded by topology instead: the pollers are
    split across the socket groups in proportion to their cores (at least
    one each), and each group round-robins over its own socket's cores.
    [spawn] is the host's thread factory (the runtime passes
    [Kernel.spawn_thread] so pollers account like any process thread).
    Under an enabled fault plan this also arms the pool watchdog:
    respawning dead pollers and driving the [Partner_kill] injection site
    (a poller may only be killed while parked idle, so no payload is ever
    mid-execution when the kill lands). *)

val endpoint : t -> name:string -> ros_core:int -> hrt_core:int -> endpoint
(** Create a fabric endpoint (an event channel plus its batching ring) and
    wire its doorbell into the poller run queue. *)

val rehome_core : t -> core:int -> ?ros_to:int -> ?hrt_to:int -> unit -> int
(** Core lending moved [core] out of its partition: re-route every
    endpoint binding that referenced it.  Endpoints whose server-side core
    was [core] move to [ros_to] (the channel's server core and the pool's
    spawn cores; poller-group routing follows the channel); endpoints
    whose HRT-side core was [core] move to [hrt_to].  In-flight slots and
    queued entries carry over untouched — their wakes were re-homed by the
    executor — so no request or wakeup is lost.  Returns the number of
    endpoint bindings re-routed.  The HVM's {!Hvm.on_repartition} hook is the intended
    caller. *)

val channel : endpoint -> Event_channel.t

val call :
  t ->
  endpoint ->
  ?key:string ->
  ?errno_site:bool ->
  ?local_try:(unit -> bool) ->
  Event_channel.request ->
  unit
(** Forward a request (thread context, HRT side); returns when the payload
    has executed exactly once — on the ROS side via the transport, batched
    into another call's drain, locally via a promoted fast path, or
    ROS-natively after the transport degraded all the way down.

    [key] sub-indexes the promotion table (e.g. the faulting page);
    [local_try] attempts local servicing once promoted, returning whether
    it succeeded (failure demotes the entry and falls back to the
    transport).  [errno_site] arms spurious-errno injection and retry for
    this request under an enabled fault plan. *)

val offer : t -> endpoint -> ?errno_site:bool -> Event_channel.request -> (unit, overload) result
(** Impatient {!call} for open-loop sources that can drop work: the
    admission gate retries a shed at most [ad_shed_retries] times with
    exponential backoff, then returns the typed [Error overload] reply
    {e without the payload having run}.  [Ok ()] carries the same
    executed-exactly-once guarantee as {!call}.  Identical to {!call}
    when no admission policy is installed (always [Ok]). *)

val set_admission : t -> admission option -> unit
(** Install (arming the watchdog and pumping any parked waiters) or
    remove the overload policy.  Changing policies resets per-endpoint
    token buckets. *)

val admission : t -> admission option

val ring_occupancy_hw : t -> int
(** High-water mark of per-endpoint ring occupancy since creation. *)

val install_local : t -> kind:string -> ?promote_after:int -> ?cost:int -> unit -> unit
(** Register a request kind in the promotion table: after [promote_after]
    forwarded calls per key (default 0: immediately), {!call} attempts
    local servicing first, charging [cost] cycles per local hit
    (default 0: the [local_try] closure does its own accounting). *)

val shutdown : t -> unit
(** Stop the pool: wake parked pollers so they exit and stop the
    watchdog.  Endpoints stay usable for draining in-flight work. *)

(** {1 Counters}

    The fabric counts into its machine's metrics registry, namespace
    [fabric] (its endpoint channels count under [event_channel]), so the
    readers below and {!Mv_engine.Machine.t}'s [metrics] always agree.
    Besides the counters read here, the registry holds [errno_retries],
    [admitted] and [queue_rejects], and the [ring_occupancy_hw] gauge. *)

val calls : t -> int
(** Requests entering {!call}. *)

val transport_calls : t -> int
(** Requests that went through an {!Event_channel.call} (leaders and
    drain rounds), i.e. doorbells actually rung. *)

val riders : t -> int
(** Requests batched into a ring instead of ringing their own doorbell
    (= doorbells suppressed). *)

val ride_timeouts : t -> int
val drains : t -> int
(** Ring drain rounds executed server-side. *)

val drained : t -> int
(** Total ring slots serviced across all drains. *)

val local_hits : t -> int
val local_misses : t -> int

val retries : t -> int
(** Channel-level timeout retries across all endpoints plus
    spurious-errno retries. *)

val fallbacks : t -> int
(** Sync -> Async endpoint degradations. *)

val reroutes : t -> int
(** Requests run ROS-natively after their endpoint died (or errno
    injection persisted). *)

val respawns : t -> int
(** Pollers respawned by the pool watchdog. *)

val endpoints : t -> int
val pollers : t -> int

val sheds : t -> int
(** Admission refusals (each emits an [Overload_shed] trace event). *)

val shed_retries : t -> int
(** Backoff retries absorbed by patient callers and by {!offer} before
    its retry budget ran out. *)

val admission_blocked : t -> int
(** Requests that parked in an endpoint's FIFO admission queue. *)

val shed_flips : t -> int
(** Watchdog high-water crossings (shed mode engaged). *)

val shed_restores : t -> int
(** Watchdog low-water drains (shed mode released). *)
