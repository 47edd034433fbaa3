(** Checkable scenarios: a named system construction plus its invariants.

    A scenario builds some slice of the Multiverse stack (from a bare
    executor up to the full boot-merge-forward pipeline), runs it to
    quiescence under a given {!Strategy} and {!Mv_faults.Fault_plan}, and
    judges the final state against its oracles.  The {!Explore} sweep
    drives one scenario across many schedules and fault plans. *)

type outcome = Pass | Fail of string

type fault_spec = {
  fs_rate : float;
  fs_sites : Mv_faults.Fault_plan.site list;
}
(** A fault-plan shape to sweep: the explorer instantiates it with each
    schedule seed ([Fault_plan.create ~seed ~rate:fs_rate ~sites:fs_sites]). *)

type t = {
  sc_name : string;
  sc_descr : string;
  sc_fault_specs : fault_spec list;
      (** Fault shapes worth sweeping in addition to the fault-free run. *)
  sc_expect_bug : bool;
      (** [true] for the deliberately broken scenarios the checker must be
          able to find (racy wakeup, dedup disabled). *)
  sc_run : strategy:Strategy.t -> faults:Mv_faults.Fault_plan.t -> outcome;
      (** Build a fresh system, install the strategy's hook, run bounded,
          check oracles.  Must be deterministic in (strategy, faults). *)
}

val default_max_events : int
(** Event budget for one bounded run (generous: a healthy run is orders of
    magnitude below it; only livelocks hit it). *)

val set_topology : (int * int) option -> unit
(** Install a [(sockets, cores_per_socket)] geometry override for every
    scenario machine (the mvcheck [--topology] flag).  Install it before
    starting a sweep; [None] restores the reference 2x4 box. *)

val topology : unit -> (int * int) option

val set_partitions : int list option -> unit
(** Install an elastic partition spec override for every scenario machine
    (the mvcheck [--partitions] flag): one HRT partition per entry, same
    semantics as [Topology.create ~hrt_parts].  [None] restores the
    single-HRT default, which is byte-identical to no override. *)

val partitions : unit -> int list option

val make_machine :
  ?hrt_parts:int list -> ?work_stealing:bool -> unit -> Mv_engine.Machine.t
(** Build a scenario machine honouring the topology and partition overrides
    (reference geometry when none is installed).  An explicit [?hrt_parts]
    takes precedence over the CLI override — scenarios that need a fixed
    multi-partition geometry (e.g. [repartition]) pass their own.
    Scenarios must derive core ids from the machine's topology instead of
    hardcoding them. *)

val failf : ('a, Format.formatter, unit, outcome) format4 -> 'a
(** [failf fmt ...] is [Fail (sprintf fmt ...)]. *)

val check_quiesced :
  ?allow_blocked:(string -> bool) ->
  Mv_engine.Exec.t ->
  quiesced:bool ->
  outcome
(** The no-blocked-forever oracle: the event queue drained within budget
    and every thread is Finished — except daemons whose {e name} satisfies
    [allow_blocked] (e.g. the AeroKernel event loop, channel servers),
    which are allowed to stay parked. *)

val all : (unit -> outcome) list -> outcome
(** First failure wins; [Pass] if every check passes. *)
