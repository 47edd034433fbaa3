(** Open-loop load generator for the forwarding fabric.

    Spawns one execution group per configured group (1k-10k), each with
    its own fabric endpoint and a precomputed arrival schedule that does
    {e not} react to the system: arrivals that find the fabric saturated
    queue up as sojourn time rather than silently throttling the source,
    so latency-vs-offered-load curves show the true overload knee
    (closed-loop generators flatten it, cf. "Open Versus Closed: A
    Cautionary Tale", NSDI'06).

    Each call is issued with {!Mv_hvm.Fabric.offer}: when admission
    control sheds a request past the retry budget, the generator counts
    it dropped and moves on — exactly the client an overloaded service
    wants, and the reason throughput stays non-retrograde past the knee
    when shedding is on. *)

type arrival =
  | Poisson  (** exponential interarrivals at the group's mean rate *)
  | Bursty
      (** the same mean rate delivered as on/off duty-cycle bursts
          (4x rate during 25% duty), phase-staggered across groups *)

type config = {
  lg_groups : int;  (** execution groups = fabric endpoints *)
  lg_calls_per_group : int;
  lg_workers_per_group : int;
      (** concurrent issuers striding the group's arrival schedule, so up
          to this many of the group's calls can be outstanding at once
          (the open-loop concurrency bound; clamped to
          [lg_calls_per_group]) *)
  lg_offered_cps : float;  (** total offered load, calls/second, all groups *)
  lg_arrival : arrival;
  lg_service_cycles : int;  (** ROS-side service cost charged per request *)
  lg_kind : Mv_hvm.Event_channel.kind;
  lg_admission : Mv_hvm.Fabric.admission option;  (** [None] = control off *)
  lg_seed : int;
  lg_machine : Mv_engine.Machine.config;
      (** the machine the generator builds; the groups round-robin over
          every core of every HRT partition *)
  lg_placement : Mv_hvm.Fabric.placement;
      (** endpoint/pool placement.  Under [Spread] (the default) group
          [g]'s server core is [ros_cores[g mod nros]], wherever its HRT
          core sits; under [Affine] it is the ROS core nearest the group's
          HRT core. *)
}

val default_config : config
(** 1000 groups x 4 calls (4 workers each), 100k calls/s Poisson, sync
    channels, 20k-cycle service, admission off, the reference 2x4 machine
    with one 4-core HRT partition ([partitions = [4]]), spread
    placement. *)

type results = {
  r_offered_cps : float;
  r_issued : int;
  r_completed : int;
  r_dropped : int;  (** typed [Overload] replies past the retry budget *)
  r_events : int;  (** simulated events processed ({!Mv_engine.Sim.events_processed}) *)
  r_makespan : Mv_util.Cycles.t;
  r_throughput_cps : float;  (** completed / makespan *)
  r_p50_us : float;  (** sojourn percentiles: completion - scheduled arrival *)
  r_p95_us : float;
  r_p99_us : float;
  r_ring_hw : int;  (** per-endpoint ring occupancy high-water mark *)
  r_sheds : int;
  r_shed_retries : int;
  r_blocked : int;
  r_shed_flips : int;  (** watchdog high-water crossings *)
  r_shed_restores : int;
}

val run : config -> results
(** Build a machine, run the generator to completion, return the
    aggregate.  Deterministic for a fixed config (all randomness flows
    from [lg_seed]).
    @raise Invalid_argument on [lg_groups < 1], a rate that is not finite
    and positive, a per-group rate so low that its arrival schedule
    could overflow the cycle clock, or an [lg_machine] that
    {!Mv_engine.Machine.check_config} rejects. *)

val arrival_of_string : string -> arrival option
