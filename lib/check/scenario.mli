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

val set_machine : Mv_engine.Machine.config -> unit
(** Install the machine every scenario builds (the mvcheck [--topology]
    and [--partitions] flags).  Install it before starting a sweep;
    {!Mv_engine.Machine.default_config}, the initial value, is the
    reference box. *)

val machine : unit -> Mv_engine.Machine.config
(** The installed machine.  The full-stack scenarios pass it to
    {!Multiverse.Toolchain.setup_multiverse}; the others build through
    {!make_machine}. *)

val make_machine :
  ?partitions:int list -> ?work_stealing:bool -> unit -> Mv_engine.Machine.t
(** Build a scenario machine from the installed one, with work stealing
    set to [work_stealing] (default [false]).  An explicit [?partitions]
    takes precedence over the installed spec — scenarios that need a
    fixed multi-partition geometry (e.g. [repartition]) pass their own.
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
