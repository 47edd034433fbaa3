(** The Multiverse toolchain and run harness.

    From the developer's perspective the HRT is a compilation target
    (paper, Section 3.1): [hybridize] takes an unmodified program (written
    against the {!Mv_guest.Env} ABI, i.e. the Linux ABI) and produces a fat
    binary that embeds the AeroKernel image and override configuration.

    The [run_*] functions execute a program in the paper's three
    evaluation configurations — native, virtualized, and hybridized — on a
    fresh simulated machine, and return uniform statistics. *)

type program = {
  prog_name : string;
  prog_main : Mv_guest.Env.t -> unit;
}

type hybrid_exe = {
  hx_program : program;
  hx_fat : Fat_binary.t;  (** {!Fat_binary.encode} gives the bytes as they would sit on disk *)
}

val hybridize :
  ?overrides:Override_config.t -> ?image_kb:int -> program -> hybrid_exe
(** "Recompile with the Multiverse toolchain": package the program with an
    embedded AeroKernel image (default 640 KiB) and the override
    configuration.  [overrides] are the developer's own, appended to the
    enforced pthread defaults at init time. *)

type mv_options = {
  mv_channel : Mv_hvm.Event_channel.kind;
  mv_symbol_cache : bool;
  mv_porting : Runtime.porting;
  mv_faults : Mv_faults.Fault_plan.t;
      (** Fault-injection plan; {!Mv_faults.Fault_plan.none} (the default)
          keeps every code path identical to the fault-free runtime. *)
  mv_placement : Mv_hvm.Fabric.placement;
      (** execution-group placement (default [Spread]; [Affine] keeps each
          group's server core and poller group on its HRT core's
          socket) *)
}
(** How the Multiverse runtime runs on its machine.  The machine itself
    is a separate {!Mv_engine.Machine.config}, the [?machine] argument of
    every run function; the runtime binds to HRT partition 1, and further
    partitions are for multi-tenant drivers that create their own
    Nautilus instances ({!Mv_aerokernel.Nautilus.create} with [~part]). *)

val default_mv_options : mv_options

type run_stats = {
  rs_mode : string;
  rs_stdout : string;
  rs_exit_code : int;
  rs_wall_cycles : int;  (** process start to exit *)
  rs_rusage : Mv_ros.Rusage.t;
  rs_syscalls : Mv_util.Histogram.t;
  rs_kernel : Mv_ros.Kernel.t;
  rs_machine : Mv_engine.Machine.t;
  rs_runtime : Runtime.t option;  (** present for Multiverse runs *)
}

val total_syscalls : run_stats -> int
val wall_seconds : run_stats -> float

val run_native :
  ?machine:Mv_engine.Machine.config -> ?stdin:string -> ?trace:bool -> program -> run_stats
(** Bare-metal Linux execution (the paper's "Native" rows) on a fresh
    machine built from [machine] (default
    {!Mv_engine.Machine.default_config}, the reference box). *)

val run_virtual :
  ?machine:Mv_engine.Machine.config -> ?stdin:string -> ?trace:bool -> program -> run_stats
(** The same, as an HVM guest: exit and nested-paging overheads apply. *)

val run_multiverse :
  ?machine:Mv_engine.Machine.config ->
  ?stdin:string ->
  ?trace:bool ->
  ?options:mv_options ->
  hybrid_exe ->
  run_stats
(** The incremental usage model: the program's [main] runs as a top-level
    HRT thread, everything else is forwarded.  The user-visible behaviour
    (stdout, exit code) must match the native run. *)

val setup_multiverse :
  ?machine:Mv_engine.Machine.config ->
  options:mv_options ->
  name:string ->
  fat:Fat_binary.t ->
  (Mv_ros.Kernel.t -> Mv_ros.Process.t -> Runtime.t -> unit) ->
  Mv_engine.Machine.t * Mv_ros.Kernel.t * Mv_ros.Process.t
(** Build the full Multiverse stack (machine, ROS kernel, HVM, AeroKernel,
    runtime) and spawn the process whose main runs [body kernel proc rt] —
    but do {e not} run the simulation.  Nothing executes until the caller
    drives [machine.sim]; the window in between is where the mvcheck model
    checker installs its {!Mv_engine.Exec.set_sched_hook} and where custom
    drivers can bound the event budget.  {!run_multiverse} is this plus
    [Sim.run] plus stat collection. *)

val run_accelerator :
  ?machine:Mv_engine.Machine.config ->
  ?stdin:string ->
  ?options:mv_options ->
  name:string ->
  (ros_env:Mv_guest.Env.t -> rt:Runtime.t -> unit) ->
  run_stats
(** The accelerator usage model: the given body runs as the program's ROS
    main with the Multiverse runtime initialized, free to mix legacy
    execution with [Runtime.hrt_invoke] and AeroKernel calls (the paper's
    Figure 4/5 examples). *)
