module Machine = Mv_engine.Machine
module Exec = Mv_engine.Exec
module Sim = Mv_engine.Sim
module Fabric = Mv_hvm.Fabric
module Event_channel = Mv_hvm.Event_channel
module Topology = Mv_hw.Topology
module Rng = Mv_util.Rng
module Cycles = Mv_util.Cycles
module Metrics = Mv_obs.Metrics

type arrival = Poisson | Bursty

type config = {
  lg_groups : int;
  lg_calls_per_group : int;
  lg_workers_per_group : int;
  lg_offered_cps : float;
  lg_arrival : arrival;
  lg_service_cycles : int;
  lg_kind : Event_channel.kind;
  lg_admission : Fabric.admission option;
  lg_seed : int;
  lg_machine : Machine.config;
  lg_placement : Fabric.placement;
}

let default_config =
  {
    lg_groups = 1000;
    lg_calls_per_group = 4;
    lg_workers_per_group = 4;
    lg_offered_cps = 100_000.0;
    lg_arrival = Poisson;
    lg_service_cycles = 20_000;
    lg_kind = Event_channel.Sync;
    lg_admission = None;
    lg_seed = 42;
    lg_machine = { Machine.default_config with partitions = [ 4 ] };
    lg_placement = Fabric.Spread;
  }

type results = {
  r_offered_cps : float;
  r_issued : int;
  r_completed : int;
  r_dropped : int;
  r_events : int;
  r_makespan : Cycles.t;
  r_throughput_cps : float;
  r_p50_us : float;
  r_p95_us : float;
  r_p99_us : float;
  r_ring_hw : int;
  r_sheds : int;
  r_shed_retries : int;
  r_blocked : int;
  r_shed_flips : int;
  r_shed_restores : int;
}

(* Bursty sources modulate the Poisson process with a deterministic on/off
   duty cycle: the same mean rate as the plain Poisson source, delivered as
   [1/burst_duty]-times-rate bursts covering [burst_duty] of the timeline.
   Phases are offset per group so the aggregate still overlaps. *)
let burst_duty = 0.25
let burst_period_cycles = Cycles.of_sec 0.002

(* Exponential interarrival draw; clamped away from 0 so the schedule is a
   strictly increasing sequence of integer cycle counts. *)
let exp_draw rng ~mean =
  let u = 1.0 -. Rng.float rng 1.0 in
  max 1 (int_of_float (-.mean *. log u))

(* Mean interarrival of one group's source, in cycles. *)
let group_mean cfg =
  let group_cps = cfg.lg_offered_cps /. float_of_int cfg.lg_groups in
  Cycles.of_sec 1.0 |> float_of_int |> fun cps -> cps /. group_cps

(* A nonzero [u] in [exp_draw] is at least [epsilon_float /. 2.] (1 minus
   the largest float below 1), so a draw is at most about 36.7 means, and
   a Bursty step adds at most one burst period.  A schedule whose largest
   possible end does not fit an [int] would wrap, in [int_of_float] or in
   the sum. *)
let schedule_fits cfg =
  float_of_int cfg.lg_calls_per_group
  *. ((group_mean cfg *. -.log (epsilon_float /. 2.)) +. float_of_int burst_period_cycles)
  < float_of_int max_int

(* Precompute each group's absolute arrival schedule.  Open-loop: the
   schedule depends only on the seed and the offered rate, never on how
   the system responds. *)
let arrival_schedule cfg rng ~group =
  let mean = group_mean cfg in
  let n = cfg.lg_calls_per_group in
  let arr = Array.make n 0 in
  (* Stagger each group's duty window so bursts from different groups
     pile onto the pollers together in waves rather than averaging out. *)
  let offset = group * burst_period_cycles / 7 in
  let duty_len = int_of_float (burst_duty *. float_of_int burst_period_cycles) in
  let phase_of t = (t + offset) mod burst_period_cycles in
  let t = ref 0 in
  for i = 0 to n - 1 do
    (match cfg.lg_arrival with
    | Poisson -> t := !t + exp_draw rng ~mean
    | Bursty ->
        (* Draw at the boosted in-burst rate, then skip any off-phase gap
           forward to this group's next duty-window start. *)
        t := !t + exp_draw rng ~mean:(mean *. burst_duty);
        if phase_of !t >= duty_len then
          t := !t + (burst_period_cycles - phase_of !t));
    arr.(i) <- !t
  done;
  arr

(* What every worker of a run shares.  Every call charges the same
   service, so one request serves them all. *)
type shared = {
  sh_exec : Exec.t;
  sh_fabric : Fabric.t;
  sh_req : Event_channel.request;
  sh_sojourn : Metrics.latency;
  sh_calls : int;  (* calls per group *)
  sh_stride : int;  (* workers per group *)
  mutable sh_issued : int;
  mutable sh_completed : int;
  mutable sh_dropped : int;
}

(* What one group's workers share; a worker's closure holds this and its
   index, nothing else. *)
type group = { g_shared : shared; g_arrivals : int array; g_ep : Fabric.endpoint }

(* Worker [w] of a group takes arrivals w, w+W, ... of its schedule. *)
let worker grp w =
  let sh = grp.g_shared in
  let exec = sh.sh_exec in
  let i = ref w in
  while !i < sh.sh_calls do
    let at = grp.g_arrivals.(!i) in
    let now = Exec.local_now exec in
    if at > now then Exec.sleep exec (at - now);
    sh.sh_issued <- sh.sh_issued + 1;
    (match Fabric.offer sh.sh_fabric grp.g_ep sh.sh_req with
    | Ok () ->
        sh.sh_completed <- sh.sh_completed + 1;
        (* Sojourn from the scheduled arrival, not the issue instant:
           under overload the gap between the two IS the queueing delay
           an open-loop client observes. *)
        Metrics.observe sh.sh_sojourn (float_of_int (Exec.local_now exec - at))
    | Error (_ : Fabric.overload) -> sh.sh_dropped <- sh.sh_dropped + 1);
    i := !i + sh.sh_stride
  done

let run cfg =
  if cfg.lg_groups < 1 then invalid_arg "Loadgen.run: lg_groups must be >= 1";
  if not (Float.is_finite cfg.lg_offered_cps && cfg.lg_offered_cps > 0.0) then
    invalid_arg "Loadgen.run: lg_offered_cps must be finite and > 0";
  if not (schedule_fits cfg) then
    invalid_arg
      (Printf.sprintf
         "Loadgen.run: offered load %g calls/s over %d groups is too low: the arrival \
          schedule overflows the cycle clock"
         cfg.lg_offered_cps cfg.lg_groups);
  let machine = Machine.create ~config:cfg.lg_machine () in
  let exec = machine.Machine.exec in
  let ros_cores = Topology.ros_cores machine.Machine.topo in
  let hrt_cores =
    List.concat_map Mv_hw.Partition.cores
      (Topology.hrt_partitions machine.Machine.topo)
  in
  let fabric = Fabric.create machine ~kind:cfg.lg_kind in
  Fabric.set_admission fabric cfg.lg_admission;
  Fabric.start_pool fabric
    ~spawn:(fun ~name ~core body -> Exec.spawn exec ~cpu:core ~name body)
    ~cores:ros_cores ~placement:cfg.lg_placement ();
  let nros = List.length ros_cores and nhrt = List.length hrt_cores in
  (* Server-side core per group: a round-robin stride over the ROS cores
     under [Spread], the ROS core nearest the group's HRT core under
     [Affine]. *)
  let ros_core_for g hrt_core =
    match cfg.lg_placement with
    | Fabric.Spread -> List.nth ros_cores (g mod nros)
    | Fabric.Affine -> Topology.nearest_ros_core machine.Machine.topo ~rotate:g hrt_core
  in
  let master = Rng.create ~seed:cfg.lg_seed in
  let makespan = ref Cycles.zero in
  (* [W] concurrent worker fibers per group stride the group's arrival
     schedule (worker w takes arrivals w, w+W, ...), so up to W calls from
     one group can be outstanding at once: the source stays open-loop
     instead of being silently throttled to one-outstanding-per-group by
     a blocked issuer, and the endpoint's batching ring actually fills
     under overload. *)
  let nworkers = min (max 1 cfg.lg_workers_per_group) cfg.lg_calls_per_group in
  let service = cfg.lg_service_cycles in
  let sh =
    {
      sh_exec = exec;
      sh_fabric = fabric;
      sh_req =
        {
          Event_channel.req_kind = "loadgen";
          req_run = (fun () -> Machine.charge machine service);
        };
      sh_sojourn = Metrics.latency machine.Machine.metrics ~ns:"loadgen" "sojourn";
      sh_calls = cfg.lg_calls_per_group;
      sh_stride = nworkers;
      sh_issued = 0;
      sh_completed = 0;
      sh_dropped = 0;
    }
  in
  let workers =
    List.concat
      (List.init cfg.lg_groups (fun g ->
           let rng = Rng.split master in
           let arrivals = arrival_schedule cfg rng ~group:g in
           let hrt_core = List.nth hrt_cores (g mod nhrt) in
           let ep =
             Fabric.endpoint fabric
               ~name:(Printf.sprintf "grp-%d" g)
               ~ros_core:(ros_core_for g hrt_core) ~hrt_core
           in
           let grp = { g_shared = sh; g_arrivals = arrivals; g_ep = ep } in
           List.init nworkers (fun w ->
               Exec.spawn exec ~cpu:hrt_core
                 ~name:(Printf.sprintf "loadgen-%d.%d" g w)
                 (fun () -> worker grp w))))
  in
  ignore
    (Exec.spawn exec ~cpu:(List.hd ros_cores) ~name:"loadgen-coordinator" (fun () ->
         List.iter (fun th -> Exec.join exec th) workers;
         makespan := Exec.local_now exec;
         Fabric.shutdown fabric));
  Sim.run machine.Machine.sim;
  let span = max 1 !makespan in
  let pct p = Cycles.to_us (int_of_float (Metrics.latency_percentile sh.sh_sojourn p)) in
  {
    r_offered_cps = cfg.lg_offered_cps;
    r_issued = sh.sh_issued;
    r_completed = sh.sh_completed;
    r_dropped = sh.sh_dropped;
    r_events = Sim.events_processed machine.Machine.sim;
    r_makespan = span;
    r_throughput_cps = float_of_int sh.sh_completed /. Cycles.to_sec span;
    r_p50_us = pct 50.0;
    r_p95_us = pct 95.0;
    r_p99_us = pct 99.0;
    r_ring_hw = Fabric.ring_occupancy_hw fabric;
    r_sheds = Fabric.sheds fabric;
    r_shed_retries = Fabric.shed_retries fabric;
    r_blocked = Fabric.admission_blocked fabric;
    r_shed_flips = Fabric.shed_flips fabric;
    r_shed_restores = Fabric.shed_restores fabric;
  }

let arrival_of_string = function
  | "poisson" -> Some Poisson
  | "bursty" -> Some Bursty
  | _ -> None
