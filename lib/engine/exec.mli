(** Simulated-thread executor: per-CPU dispatch in virtual time.

    A thread is a fiber pinned to a CPU.  When dispatched it executes
    OCaml code instantaneously in host time while accumulating virtual
    cycles via {!charge}; the segment ends when the thread blocks, yields,
    is preempted (slice expiry), or finishes, at which point the CPU is
    busy until [segment_start + accumulated_charge].  All cross-thread
    interaction must go through {!block}/wake, which keeps virtual-time
    causality consistent even though segments are host-atomic.

    Both the ROS scheduler and the AeroKernel build on this; they differ
    only in switch cost and preemption policy (Linux preempts on a
    timeslice, Nautilus threads are cooperative). *)

type t
type thread

type thread_state = Ready | Running | Blocked of string | Finished

type sched_hook = {
  sh_pick : cpu:int -> thread array -> int;
      (** Called when two or more Ready threads compete for a CPU at the
          same virtual instant.  Candidates are in FIFO order; return the
          index to dispatch (out-of-range falls back to 0).  Returning 0
          everywhere reproduces the default FIFO schedule exactly. *)
  sh_preempt : cpu:int -> thread -> bool;
      (** Called at a slice expiry while local competitors wait.  [true]
          preempts (the default behaviour); [false] extends the slice by
          one quantum, modelling timer jitter.  Hooks must not starve:
          return [true] eventually. *)
  sh_steal : cpu:int -> victims:int array -> int;
      (** Called when an idle core in the steal domain has two or more
          candidate victims.  [victims] are cpu ids in the default
          preference order (most Ready threads first, ties to the lowest
          core id); return the index to steal from (out-of-range falls back
          to 0).  Returning 0 everywhere reproduces the default
          deterministic stealing exactly. *)
}

val create : Sim.t -> ncpus:int -> t
val sim : t -> Sim.t
val ncpus : t -> int

val set_sched_hook : t -> sched_hook option -> unit
(** Install (or clear) the schedule-exploration hook.  With [None] — the
    default — dispatch is plain FIFO and behaviour is byte-identical to an
    executor that never heard of hooks. *)

val threads : t -> thread list
(** Every thread ever spawned on this executor, in spawn order — the model
    checker's view for quiescence and lost-wakeup oracles. *)

val set_steal_domain : t -> int list option -> unit
(** Enable deterministic work stealing among the listed cores (or disable
    it with [None], the default).  An idle domain core with an empty run
    queue steals the oldest half (rounded up) of the Ready threads of the
    most-loaded domain peer — fixed victim order by core id, ties to the
    lowest id — migrating them permanently.  Cores outside the domain
    neither steal nor are stolen from, so the ROS/HRT partition boundary
    is never crossed.  With stealing disabled, scheduling is byte-identical
    to an executor that never heard of stealing.
    @raise Invalid_argument if a core id is out of range. *)

val steals : t -> cpu:int -> int
(** Successful steals performed by a cpu. *)

val runq : t -> cpu:int -> thread list
(** The threads currently sitting in a cpu's run queue, in queue (FIFO)
    order — a model-checker observation point; may include entries whose
    state is no longer [Ready]. *)

val set_cpu_params :
  t -> cpu:int -> ?switch_cost:int -> ?slice:Mv_util.Cycles.t option -> unit -> unit
(** Configure context-switch cost and the preemption quantum ([None] means
    cooperative) for one CPU. *)

val rehome : t -> cpu:int -> dst:int -> int
(** [rehome t ~cpu ~dst] evacuates [cpu]'s scheduling state onto [dst] —
    the executor half of the HVM's core-lending protocol.  Queued threads
    move to the back of [dst]'s run queue preserving their relative FIFO
    order; every live thread homed on [cpu] (blocked, queued, or with a
    wake-enqueue event still in flight) is retargeted so pending wakeups
    land on [dst] with none lost; [cpu]'s last-dispatched-thread affinity
    is fenced so its next owner starts from a clean switch.  Returns the
    number of threads re-homed.  The caller is responsible for partition
    bookkeeping and for re-applying per-cpu parameters to [cpu].
    @raise Invalid_argument when the running thread is homed on [cpu]. *)

(** {1 Thread lifecycle} *)

val spawn : t -> cpu:int -> name:string -> (unit -> unit) -> thread
(** Create a thread on [cpu], runnable as of the caller's local time.  The
    body runs as a fiber; returning ends the thread. *)

val kill : t -> thread -> unit
(** Terminate a thread.  A blocked thread's fiber is unwound with
    {!Fiber.Cancelled}; a ready thread is descheduled.  Killing the running
    thread (self) is not supported — just return from the body. *)

val state : t -> thread -> thread_state
(** A blocked thread keeps its reason apart from its state, so a parked
    thread holds no boxed variant; [state] builds [Blocked reason] on each
    call. *)

val name : thread -> string
val tid : thread -> int
val cpu_of : thread -> int

(** {1 Inside a thread} *)

val self : t -> thread
(** @raise Failure when no thread is executing. *)

val self_opt : t -> thread option
(** [None] outside thread context (event callbacks, the top level). *)

val charge : t -> Mv_util.Cycles.t -> unit
(** Account virtual compute time to the running thread.  May preempt (and
    therefore suspend the fiber) if the CPU's slice expires and another
    thread is waiting. *)

val set_charge_hook : t -> (thread -> Mv_util.Cycles.t -> unit) -> unit
(** Observe every {!charge} (thread, amount) — used by the ROS to split
    cycles into user and system time.  The hook runs before any preemption
    the charge triggers. *)

val local_now : t -> Mv_util.Cycles.t
(** The current thread's virtual time ([segment start + charge so far]);
    equals [Sim.now] outside thread context. *)

val block : t -> reason:string -> (now:Mv_util.Cycles.t -> wake:('a -> unit) -> unit) -> 'a
(** [block t ~reason register] suspends the current thread.  [register] is
    called immediately with the thread's block time [now] and a [wake]
    function; stash [wake] somewhere (a wait queue, a timer) and the thread
    resumes — no earlier than [now] — with the value passed to it.  [wake]
    must be called at most once. *)

val yield : t -> unit
(** Voluntarily give up the CPU, staying runnable. *)

val sleep : t -> Mv_util.Cycles.t -> unit

val join : t -> thread -> unit
(** Block until the target thread finishes (no-op if it already has). *)

val after : t -> Mv_util.Cycles.t -> (unit -> unit) -> unit
(** Schedule an event [delay] after the caller's local time. *)

(** {1 Accounting} *)

val cpu_time : thread -> Mv_util.Cycles.t
(** Total virtual cycles the thread has consumed. *)

val voluntary_switches : thread -> int
val involuntary_switches : thread -> int
val cpu_switches : t -> cpu:int -> int
(** Context switches (thread-to-different-thread dispatches) on a CPU. *)
