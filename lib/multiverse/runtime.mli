(** The Multiverse runtime component — what the toolchain compiles and
    links into the user program (paper, Sections 3 and 4).

    [init] performs the program-startup tasks the toolchain hooks in before
    [main()]: registering ROS signal handlers, hooking process exit,
    AeroKernel function linkage, parsing and installing the embedded
    AeroKernel image, booting the HRT, merging the address spaces, and
    bringing up the forwarding fabric ({!Mv_hvm.Fabric}) with its shared
    ROS-side poller pool.

    [hrt_invoke] implements split execution: each top-level HRT thread gets
    a {e partner thread} in the ROS that allocates its ROS-side stack and
    requests its creation via the HVM (superimposing GDT/TLS state).  The
    group's events are served by the fabric's poller pool — the partner
    itself just waits for the HRT-exit signal, so joining the partner is
    how [pthread_join] semantics are preserved without a dedicated server
    loop per group. *)

exception Disallowed of string
(** Raised when HRT-context code uses functionality Multiverse prohibits
    ([execve], raw [clone], [futex] — paper, Section 4.2). *)

type porting = {
  port_mmap : bool;  (** mmap/munmap/mprotect served by AeroKernel overrides *)
  port_signals : bool;  (** sigaction/sigprocmask + delivery kept HRT-local *)
  port_faults : bool;  (** lower-half faults serviced in the HRT (kernel mode) *)
}

val no_porting : porting
val full_porting : porting

type t

val init :
  hvm:Mv_hvm.Hvm.t ->
  proc:Mv_ros.Process.t ->
  fat:Fat_binary.t ->
  nk:Mv_aerokernel.Nautilus.t ->
  ?channel_kind:Mv_hvm.Event_channel.kind ->
  ?use_symbol_cache:bool ->
  ?porting:porting ->
  ?faults:Mv_faults.Fault_plan.t ->
  ?placement:Mv_hvm.Fabric.placement ->
  unit ->
  t
(** Run the Multiverse initialization sequence (thread context: call from
    the program's main ROS thread).  Installs the default pthread
    overrides plus any from the fat binary's [.mv.overrides] section.

    An enabled [faults] plan arms the fabric's whole resilience stack:
    lossy event channels with timeout/retry/backoff, a pool watchdog that
    respawns killed pollers, spurious-errno retry on forwarded syscalls,
    and graceful degradation (Sync -> Async endpoint fallback, ROS-native
    rerouting when an endpoint dies).  With the default [Fault_plan.none]
    every code path is byte-identical to the fault-free runtime.

    Execution groups round-robin over the partition's HRT cores under
    either [placement].  [Spread] (the default) serves every group from
    the first ROS core; [Affine] serves a group from the ROS core nearest
    its HRT core (ties rotated by group id) and shards the poller pool per
    socket. *)

val hrt_invoke : t -> name:string -> (Mv_guest.Env.t -> unit) -> Mv_guest.Env.thread_handle
(** Create an execution group running the function as a top-level HRT
    thread; returns the ROS partner thread (join it to join the group).
    Callable from ROS context or (via the pthread override) from HRT
    context.  The function gets the guest ABI as seen from HRT context:
    syscalls forward over the execution group's fabric endpoint (batching
    into in-flight calls when possible), vdso calls and overridden
    functions run locally, memory faults follow the Nautilus forwarding
    path with promoted repeat faults re-merged locally. *)

val join : t -> Mv_guest.Env.thread_handle -> unit

val create_nested : t -> name:string -> (unit -> unit) -> Mv_guest.Env.thread_handle
(** From HRT context: create a {e nested} HRT thread (paper, Figure 7) —
    a pure AeroKernel thread with no partner of its own that raises its
    events through the caller's execution-group endpoint.  Join it with
    {!join_nested}. *)

val join_nested : t -> Mv_guest.Env.thread_handle -> unit
(** Join a nested thread directly (AeroKernel join; no partner involved). *)

val shutdown : t -> unit
(** Release all live partners and stop the fabric's poller pool (the
    process-exit hook calls this). *)

(** {1 Introspection} *)

val symbols : t -> Symbols.t
val config : t -> Override_config.t
val nk : t -> Mv_aerokernel.Nautilus.t

val partition : t -> Mv_hw.Partition.id
(** The HRT partition this runtime is bound to — the partition its [nk]
    was created in.  Execution groups round-robin over this partition's
    cores, and the runtime registers an {!Mv_hvm.Hvm.on_repartition} hook
    so core lending re-homes its fabric endpoints. *)

val fabric : t -> Mv_hvm.Fabric.t
(** The forwarding fabric (batching/routing/fast-path counters live
    there). *)

val groups_created : t -> int
val faults_serviced_locally : t -> int
val overridden_calls : t -> int
