(** HVM event channels: the ROS<->HRT communication mechanism.

    A channel is a shared data page plus a signaling discipline.  Two kinds
    exist (paper, Sections 2 and 4.3, measured in Figure 2):

    - {b Async}: hypercall + interrupt injection; ~25 K cycles (1.1 us)
      round trip.  Works without any prior setup.
    - {b Sync}: after an address-space merger, both sides poll a shared
      memory word with no VMM involvement; ~790 cycles same-socket,
      ~1060 cross-socket round trip.

    The server (a Multiverse partner thread in the ROS) handles one request
    at a time; requests from multiple HRT threads of one execution group
    queue ("the top-level HRT thread's corresponding partner acting as the
    communication end-point", paper Section 4.2).

    {b Failure model.}  By default the channel is infallible and the code
    path is byte-identical to a lossless channel.  Under a
    {!Mv_faults.Fault_plan} the channel becomes lossy (drop / delay /
    duplicate / corrupt per the plan) and {e resilient}: each {!call}
    attempt carries a cycle-budget timeout, timed-out calls retry with
    exponential backoff (latencies charged through the ordinary cycle
    model), and payloads are deduplicated server-side so a logical call
    executes exactly once however many times its message is delivered. *)

type kind = Async | Sync

exception Protocol_error of string
(** A violation of the request/complete protocol: completing with nothing
    being served, or a corrupt (injected) request the server must discard.
    Server loops are expected to trace and survive it. *)

exception Channel_failure of string
(** Raised by {!call} when every retry of a request timed out (carries the
    request kind), and by calls on a channel {!mark_failed} earlier.  The
    runtime reacts by degrading: Sync -> Async, then ROS-native rerouting. *)

type request = { req_kind : string; req_run : unit -> unit }
(** A named request carrying its executable payload; the server runs
    [req_run] in its own (ROS) context. *)

type t

val create :
  ?faults:Mv_faults.Fault_plan.t ->
  ?dedup:bool ->
  Mv_engine.Machine.t ->
  kind:kind ->
  ros_core:int ->
  hrt_core:int ->
  t
(** A fault plan (when enabled) arms both injection and the
    timeout/retry/backoff resilience machinery; without one the channel
    behaves exactly as the seed implementation.  [~dedup:false] disables
    the server-side payload deduplication — a deliberately broken protocol
    used only by the mvcheck model checker to prove it can find the
    resulting at-most-once violation. *)

val kind : t -> kind

val rtt : t -> int
(** The modeled round-trip latency in cycles (socket-distance aware). *)

val ros_core : t -> int
val hrt_core : t -> int

val rehome : t -> ?ros_core:int -> ?hrt_core:int -> unit -> unit
(** Retarget one (or both) ends of the channel after core lending moved
    the underlying core.  The RTT follows the new socket distance; armed
    resilience timeouts are re-sized for it.  In-flight entries are
    unaffected — the queue and its wakes carry over, so no request is
    lost across a re-home. *)

val call : t -> request -> unit
(** Issue a request and block until the server completes it (thread
    context, caller side).
    @raise Channel_failure when resilience is armed and retries exhaust. *)

val post : t -> request -> unit
(** Fire-and-forget: enqueue a request with no completion expected.  Safe
    to use outside thread context (e.g. from a signal-injection event).
    Posts carry control messages and are never fault-injected. *)

val serve_next : t -> request
(** Block until a request arrives (server side).
    @raise Protocol_error on an injected-corrupt request (discarded). *)

val poll_next : t -> request option
(** Non-blocking server-side take: [None] when the queue is empty.  For
    poller-pool servers multiplexing several channels.  Charges the same
    poll/notice latency as {!serve_next}'s queue-pop path.
    @raise Protocol_error on an injected-corrupt request (discarded). *)

val set_notify : t -> (unit -> unit) option -> unit
(** Install (or clear) a doorbell hook fired once per enqueued entry in
    place of the parked-server delivery of {!serve_next}.  At-least-once:
    the consumer must treat an empty {!poll_next} as a no-op. *)

val complete : t -> unit
(** Finish the request obtained from {!serve_next}: wakes the caller if it
    was a {!call}; a no-op for {!post}ed requests.
    @raise Protocol_error if nothing is being served. *)

val serve_loop : t -> on_request:(request -> unit) -> unit
(** Convenience server: forever take a request, run [on_request] (which
    should execute [req_run]), complete.  Traces and survives
    {!Protocol_error}.  Never returns. *)

(** {1 Degradation and recovery} *)

val degrade_to_async : t -> unit
(** Fall back from Sync polling to the always-works Async hypercall
    channel (no-op if already Async); re-arms timeouts for async latency. *)

val restore_sync : t -> unit
(** Undo a {!degrade_to_async} flip: promote a live Async channel back to
    Sync polling and re-arm timeouts for sync latency.  No-op on a failed
    or already-Sync channel.  Callers (the fabric's load-shedding
    watchdog) must only restore channels they themselves degraded — a
    channel that fell back because its sync path died must stay Async. *)

val queue_depth : t -> int
(** Entries enqueued but not yet taken by the server — the channel's
    contribution to endpoint occupancy. *)

val mark_failed : t -> unit
(** Declare the channel dead: subsequent {!call}s raise {!Channel_failure}
    immediately so the runtime reroutes work ROS-natively. *)

val reset_server : t -> unit
(** Drop server-side state left behind by a dead partner thread (parked
    waker, half-served entry) so a respawned partner can re-enter
    {!serve_next} cleanly. *)

val failed : t -> bool

(** {1 Counters}

    Every channel counts into its machine's metrics registry, namespace
    [event_channel]: [calls], [timeouts], [retries], [protocol_errors]
    and [degraded] (Sync -> Async flips).  The slots are shared by all
    channels on the machine, so the readers below return machine-wide
    totals. *)

val calls : t -> int
val timeouts : t -> int
val retries : t -> int
