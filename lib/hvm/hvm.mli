(** The Hybrid Virtual Machine: a Palacios extension that runs one VM with
    a partitioned personality — a ROS (Linux) on some cores and one or
    more HRT (Nautilus) partitions on the rest (paper, Section 2,
    generalized to N coexisting HRTs).

    The HVM exposes hypercalls to ROS user space: install an HRT image
    ("much like an exec()") into a partition, boot/reboot a partition's
    HRT (milliseconds), merge address spaces per partition, and invoke
    functions asynchronously in an HRT.  It also delivers HRT-to-ROS
    signals by building an interrupt-like frame for a registered user
    handler ("interrupt to user"), and ROS-to-HRT signals by exception
    injection.

    Partition geometry is elastic: {!lend_core} moves a core into another
    partition at runtime — draining its run queue, fencing its per-core
    dispatch and steal state, and re-homing fabric routing through the
    {!on_repartition} hooks — and {!reclaim_core} returns it home. *)

type t

val create : Mv_engine.Machine.t -> ros:Mv_ros.Kernel.t -> t
(** Wrap the machine; the ROS kernel is marked virtualized.  One HRT slot
    is created per HRT partition in the machine's topology. *)

val set_faults : t -> Mv_faults.Fault_plan.t -> unit
(** Arm fault injection for HVM-mediated protocols (today: the HRT boot
    stall site). *)

val machine : t -> Mv_engine.Machine.t
val ros : t -> Mv_ros.Kernel.t

(** {1 Partitions} *)

val partitions : t -> Mv_hw.Partition.id list
(** The HRT partition ids this HVM manages, ascending. *)

val lend_core : t -> core:int -> dst:Mv_hw.Partition.id -> unit
(** Move a core into partition [dst] at runtime (one [hrt_repartition]
    hypercall).  The core's run queue drains onto a sibling core of the
    source partition with FIFO order preserved; threads homed on it —
    including those with wake-enqueue events still in flight — are
    re-targeted so no wakeup is lost; scheduling parameters, the steal
    domain, and the core's architectural state are re-derived for the
    destination; registered {!on_repartition} hooks then re-home fabric
    routing.  Emits a [Repartition] trace event.
    @raise Invalid_argument when [dst] already owns the core, when the
    source partition would be left empty, when [dst] is unknown, or when
    called from a thread running on the lent core. *)

val reclaim_core : t -> core:int -> unit
(** Return a lent core to its home partition (the one it was carved into
    at creation); same protocol as {!lend_core}.
    @raise Invalid_argument if the core is not currently lent out. *)

val on_repartition :
  t -> (core:int -> src:Mv_hw.Partition.id -> dst:Mv_hw.Partition.id -> unit) -> unit
(** Register a hook fired after every core move (lend or reclaim) — the
    forwarding fabric uses this to re-route endpoints bound to the moved
    core.  Hooks run in registration order. *)

(** {1 Hypercalls (ROS user space -> VMM)} *)

val hypercall : t -> name:string -> unit
(** Charge one guest-exit + VMM dispatch and count it. *)

val install_hrt_image : t -> image_kb:int -> Mv_aerokernel.Nautilus.t -> unit
(** Copy the AeroKernel image into HRT physical memory (cost scales with
    the image size) and remember it as the instance of {e its} partition
    ({!Mv_aerokernel.Nautilus.partition}). *)

val boot_hrt : ?part:Mv_hw.Partition.id -> t -> unit
(** Boot (or reboot) the HRT installed in [part] (default 1); blocks the
    caller for the boot's milliseconds.  Under an armed fault plan the
    boot protocol may stall once, costing an extra boot budget plus a
    reissued hypercall.
    @raise Failure if no image is installed in the partition. *)

val merge_address_space : ?part:Mv_hw.Partition.id -> t -> Mv_ros.Process.t -> unit
(** The address-space-merger hypercall: the shared data page carries the
    caller's CR3; the VMM forwards to the partition's HRT which copies the
    lower-half PML4.  Each partition merges independently (its own shadow
    root and staleness generation). *)

val hrt_create_thread :
  ?part:Mv_hw.Partition.id ->
  t ->
  Mv_ros.Process.t ->
  name:string ->
  ?core:int ->
  (unit -> unit) ->
  Mv_engine.Exec.thread
(** The asynchronous-function-call hypercall: ask the partition's HRT
    event loop to create a kernel thread; superimposes the caller's
    GDT/TLS state onto the target core first.  [core] defaults to the
    partition's first core. *)

(** {1 Signals} *)

val register_ros_signal : t -> handler:(int -> unit) -> unit
(** Register the user-level handler + stack for HRT-to-ROS signals
    (analogous to [signal(2)]). *)

val raise_signal_to_ros : t -> payload:int -> unit
(** HRT side: raise an asynchronous signal; the HVM waits for a user-mode
    entry window and injects the handler invocation (~11 us). *)

val set_signal_transport : t -> ((unit -> unit) -> unit) option -> unit
(** Route HRT-to-ROS signal injections through an external transport (the
    forwarding fabric's async endpoint) instead of the built-in
    schedule-at-RTT path.  The transport receives the ready-to-run handler
    invocation.  [None] restores the built-in path. *)

(** {1 Statistics} *)

val hypercalls : t -> int
val exits : t -> int

val lends : t -> int
(** Completed {!lend_core} moves. *)

val reclaims : t -> int
(** Completed {!reclaim_core} moves. *)

