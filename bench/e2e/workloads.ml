(* The five workloads.  Each reaches the layers only through their public
   functions and counters.  [prepare] is the set-up: it builds the
   inputs from the seed and runs a small warm-up of the same work, so
   lazy state and the OCaml heap are in place before anything is timed.  It returns the
   measured pass, which the runner repeats. *)

open Multiverse
module Loadgen = Mv_workloads.Loadgen
module Benchmarks = Mv_workloads.Benchmarks
module Fabric = Mv_hvm.Fabric
module Explore = Mv_check.Explore
module Scenario = Mv_check.Scenario
module Strategy = Mv_check.Strategy
module Rusage = Mv_ros.Rusage
module Racket = Mv_racket.Engine
module Critical_path = Mv_obs.Critical_path
module Tracer = Mv_obs.Tracer

type size = Full | Smoke
type kind = Untraced | Traced

type pass = {
  attempted : int;
  failed : int;
  problems : string list;  (* one line per failed check *)
  events : int;  (* simulated events; 0 where the layer does not expose them *)
  sim : (string * float) list;  (* exact per-layer metrics *)
  host : (string * float) list;  (* host per-layer metrics, from a traced pass's spans *)
}

type t = {
  name : string;
  prepare : size -> seed:int -> Spans.t -> kind -> pass;
}

let f = float_of_int
let mcycles c = f c /. 1e6
let kcycles_of_us us = us *. Mv_util.Cycles.clock_ghz
let ratio a b = if b = 0 then 0. else f a /. f b
let span_s (s : Spans.span) = s.t1 -. s.t0

(* --- hybrid-*: one Racket program, native and hybridized --------------- *)

let hybrid ~bench ~n ~smoke_n ~expected size ~seed:_ spans =
  let b = Benchmarks.find bench in
  let source = ref (b.Benchmarks.b_source b.Benchmarks.b_test_n) in
  (* Benchmarks.program, with spans around the two engine calls and a
     handle on the engine for its VM and collector counters. *)
  let engine = ref None in
  let prog =
    {
      Toolchain.prog_name = bench;
      prog_main =
        (fun env ->
          let e = Spans.with_span spans "Engine.start" (fun () -> Racket.start env) in
          engine := Some e;
          Spans.with_span spans "Engine.run_program" (fun () -> Racket.run_program e !source));
    }
  in
  let hx = Toolchain.hybridize prog in
  ignore (Toolchain.run_native prog);
  ignore (Toolchain.run_multiverse hx);
  let n, expected = match size with Full -> (n, Some expected) | Smoke -> (smoke_n, None) in
  source := b.Benchmarks.b_source n;
  let run span f =
    engine := None;
    let rs = Spans.with_span spans span f in
    let e = Option.get !engine in
    (rs, Mv_racket.Vm.instructions_executed (Racket.vm e), Mv_racket.Sgc.stats (Racket.gc e))
  in
  fun kind ->
    let traced = kind = Traced in
    let nat, nat_instr, _ = run "Toolchain.run_native" (fun () -> Toolchain.run_native prog) in
    (* The native run's machine is never traced, so its interpreter span
       gives the VM's host speed undisturbed by the span tracer. *)
    let host =
      match Spans.last spans "Engine.run_program" with
      | Some s when traced ->
          [
            ("racket.vm_minstr_per_s", f nat_instr /. span_s s /. 1e6);
            ("racket.minor_words_per_instr", s.words /. f nat_instr);
          ]
      | _ -> []
    in
    let mv, instr, gc =
      run "Toolchain.run_multiverse" (fun () -> Toolchain.run_multiverse ~trace:traced hx)
    in
    let problems =
      List.filter_map
        (fun (rs : Toolchain.run_stats) ->
          let reference = Option.value expected ~default:nat.Toolchain.rs_stdout in
          if rs.Toolchain.rs_exit_code <> 0 then
            Some (Printf.sprintf "%s %s: exit %d" bench rs.Toolchain.rs_mode rs.rs_exit_code)
          else if rs.Toolchain.rs_stdout <> reference then
            Some (Printf.sprintf "%s %s: stdout differs from the expected output" bench rs.rs_mode)
          else None)
        [ nat; mv ]
    in
    let failed = List.length problems in
    let ru = mv.Toolchain.rs_rusage in
    let rt = Option.get mv.Toolchain.rs_runtime in
    let fabric = Runtime.fabric rt in
    let machine = mv.Toolchain.rs_machine in
    let exec = machine.Mv_engine.Machine.exec in
    let switches =
      List.fold_left ( + ) 0
        (List.init (Mv_engine.Exec.ncpus exec) (fun cpu -> Mv_engine.Exec.cpu_switches exec ~cpu))
    in
    let events =
      Mv_engine.Sim.events_processed nat.Toolchain.rs_machine.Mv_engine.Machine.sim
      + Mv_engine.Sim.events_processed machine.Mv_engine.Machine.sim
    in
    let hits = Fabric.local_hits fabric in
    let sim =
      [
        ("engine.events", f events);
        ("engine.ctx_switches", f switches);
        ("racket.vm_instructions", f instr);
        ("racket.gc_collections", f gc.Mv_racket.Sgc.collections);
        ("ros.syscalls", f (Toolchain.total_syscalls mv));
        ("ros.page_faults", f (ru.Rusage.minflt + ru.Rusage.majflt));
        ("ros.stime_mcycles", mcycles ru.Rusage.stime);
        ("ros.maxrss_kb", f ru.Rusage.maxrss_kb);
        ("hw.tlb_hit_rate", Rusage.tlb_hit_rate ru);
        ("hw.walks", f ru.Rusage.walks);
        ( "hw.memory_path_mcycles",
          mcycles (ru.Rusage.walk_cycles + ru.Rusage.fill_cycles + ru.Rusage.shootdown_cycles) );
        ("hw.shootdowns", f ru.Rusage.shootdowns);
        ("hvm.fabric_calls", f (Fabric.calls fabric));
        ("hvm.doorbells", f (Fabric.transport_calls fabric));
        ("hvm.local_hit_rate", ratio hits (hits + Fabric.local_misses fabric));
        ("hvm.remerges", f (Mv_aerokernel.Nautilus.stats_remerges (Runtime.nk rt)));
        ("multiverse.sim_mcycles", mcycles mv.Toolchain.rs_wall_cycles);
        ("multiverse.mv_overhead", ratio mv.Toolchain.rs_wall_cycles nat.Toolchain.rs_wall_cycles);
      ]
    in
    (* With the machine's span tracer on, the per-crossing breakdown of
       every forwarded call; these exist only in traced passes. *)
    let sim, problems =
      if not traced then (sim, problems)
      else
        let obs = machine.Mv_engine.Machine.obs in
        let report = Critical_path.compute (Tracer.spans obs) in
        let total field = mcycles (List.fold_left (fun a r -> a + field r) 0 report.rows) in
        let attributed = Critical_path.attributed_fraction report in
        let dropped = Tracer.dropped obs in
        ( sim
          @ [
              ("hvm.crossing_guest_mcycles", total (fun r -> r.Critical_path.r_guest));
              ("hvm.crossing_transport_mcycles", total (fun r -> r.Critical_path.r_transport));
              ("hvm.crossing_service_mcycles", total (fun r -> r.Critical_path.r_service));
              ("hvm.crossing_reply_mcycles", total (fun r -> r.Critical_path.r_reply));
              ("hvm.crossing_attributed_frac", attributed);
              ("obs.spans", f (Tracer.span_count obs));
              ("obs.spans_dropped", f dropped);
            ],
          problems
          @ (if attributed < 0.95 then
               [ Printf.sprintf "%s: only %.3f of crossing cycles attributed" bench attributed ]
             else [])
          @ if dropped > 0 then [ Printf.sprintf "%s: tracer dropped %d spans" bench dropped ] else [] )
    in
    { attempted = 2; failed; problems; events; sim; host }

(* --- fabric-*: the open-loop load generator -------------------------- *)

let loadgen spans cfg = Spans.with_span spans "Loadgen.run" (fun () -> Loadgen.run cfg)

let load_sim (r : Loadgen.results) =
  [
    ("hvm.sojourn_p50_kcycles", kcycles_of_us r.Loadgen.r_p50_us);
    ("hvm.sojourn_p99_kcycles", kcycles_of_us r.Loadgen.r_p99_us);
    ( "hvm.queue_wait_p50_kcycles",
      kcycles_of_us r.Loadgen.r_p50_us -. (f Loadgen.default_config.Loadgen.lg_service_cycles /. 1e3) );
  ]

(* The p99 latency limit of the ladder: a rate passes while p99 stays
   within it, which a growing backlog breaks. *)
let p99_limit_us = 1000.

let fabric_open size ~seed spans =
  let groups, calls, ladder, reference =
    match size with
    | Full -> (500, 32, Catalogue.ladder_kcps, 350)
    | Smoke -> (50, 4, [ 300; 500 ], 300)
  in
  let cfg kcps =
    {
      Loadgen.default_config with
      Loadgen.lg_groups = groups;
      lg_calls_per_group = calls;
      lg_workers_per_group = 16;
      lg_arrival = Loadgen.Poisson;
      lg_offered_cps = f (kcps * 1000);
      lg_seed = seed;
    }
  in
  ignore (Loadgen.run { (cfg reference) with Loadgen.lg_groups = max 1 (groups / 10) });
  fun _kind ->
    let cells = List.map (fun k -> (k, loadgen spans (cfg k))) ladder in
    let sum field = List.fold_left (fun a (_, r) -> a + field r) 0 cells in
    let rec max_passing best = function
      | (k, r) :: rest when r.Loadgen.r_p99_us <= p99_limit_us -> max_passing k rest
      | _ -> best
    in
    let issued = sum (fun r -> r.Loadgen.r_issued) in
    let failed = issued - sum (fun r -> r.Loadgen.r_completed) in
    {
      attempted = issued;
      failed;
      problems =
        (if failed > 0 then [ Printf.sprintf "fabric-open: %d of %d calls not completed" failed issued ]
         else []);
      events = sum (fun r -> r.Loadgen.r_events);
      sim =
        load_sim (List.assoc reference cells)
        @ [
            ("hvm.max_kcps", f (max_passing 0 cells));
            ("hvm.dropped", f (sum (fun r -> r.Loadgen.r_dropped)));
            ("hvm.ring_hw", f (List.fold_left (fun a (_, r) -> max a r.Loadgen.r_ring_hw) 0 cells));
            ("engine.events", f (sum (fun r -> r.Loadgen.r_events)));
          ]
        @ List.map
            (fun (k, r) -> (Catalogue.ladder_metric k, kcycles_of_us r.Loadgen.r_p99_us))
            cells;
      host = [];
    }

let fabric_shed size ~seed spans =
  let groups, calls = match size with Full -> (1000, 64) | Smoke -> (50, 8) in
  (* The scale bench's Shed envelope; the token rate is each group's fair
     share of the poller pool (1.9e-7 tokens/cycle at 1000 groups). *)
  let admission =
    Fabric.make_admission ~policy:Fabric.Shed ~ring_capacity:8 ~queue_capacity:16
      ~rate:(1.9e-7 *. 1000. /. f groups) ~burst:4 ()
  in
  let cfg =
    {
      Loadgen.default_config with
      Loadgen.lg_groups = groups;
      lg_calls_per_group = calls;
      lg_workers_per_group = 16;
      lg_arrival = Loadgen.Bursty;
      lg_offered_cps = 800_000.;
      lg_admission = Some admission;
      lg_seed = seed;
    }
  in
  ignore (Loadgen.run { cfg with Loadgen.lg_groups = max 1 (groups / 10) });
  fun _kind ->
    let r = loadgen spans cfg in
    (* A call fails when it neither completed nor came back with a typed
       Overload reply: the fabric lost it. *)
    let failed = r.Loadgen.r_issued - r.Loadgen.r_completed - r.Loadgen.r_dropped in
    {
      attempted = r.Loadgen.r_issued;
      failed;
      problems =
        (if failed > 0 then [ Printf.sprintf "fabric-shed: %d calls lost" failed ] else []);
      events = r.Loadgen.r_events;
      sim =
        load_sim r
        @ [
            ("hvm.goodput_kcps", r.Loadgen.r_throughput_cps /. 1e3);
            ("hvm.drop_frac", ratio r.Loadgen.r_dropped r.Loadgen.r_issued);
            ("hvm.dropped", f r.Loadgen.r_dropped);
            ("hvm.ring_hw", f r.Loadgen.r_ring_hw);
            ("hvm.sheds", f r.Loadgen.r_sheds);
            ("hvm.shed_retries", f r.Loadgen.r_shed_retries);
            ("hvm.shed_flips", f r.Loadgen.r_shed_flips);
            ("engine.events", f r.Loadgen.r_events);
          ];
      host = [];
    }

(* --- check-sweep: many short checked machines ------------------------ *)

(* The scenarios that boot the whole Multiverse stack through
   Toolchain.hybridize and setup_multiverse; the rest build a slice. *)
let stack_scenarios = [ "boot-handshake"; "group-respawn"; "merge-fault"; "multi-group" ]

let check_sweep size ~seed spans =
  let k = match size with Full -> 40 | Smoke -> 2 in
  let clean, buggy =
    List.partition (fun sc -> not sc.Scenario.sc_expect_bug) Mv_check.Scenarios.all_scenarios
  in
  let attempts (sc : Scenario.t) =
    (Strategy.Fifo, Explore.no_faults)
    :: List.concat
         (List.init k (fun i ->
              let s = seed + i in
              (Strategy.Random s, Explore.no_faults)
              :: List.map
                   (fun (fs : Scenario.fault_spec) ->
                     ( Strategy.Random s,
                       { Explore.fc_seed = s; fc_rate = fs.Scenario.fs_rate; fc_sites = fs.fs_sites } ))
                   sc.Scenario.sc_fault_specs))
  in
  let plan = List.map (fun sc -> (sc, attempts sc)) clean in
  List.iter (fun sc -> ignore (Explore.run_once sc ~spec:Strategy.Fifo ~fc:Explore.no_faults)) clean;
  fun kind ->
    let runs = ref 0 and choices = ref 0 and problems = ref [] in
    let stack_n = ref 0 and stack_s = ref 0. and light_n = ref 0 and light_s = ref 0. in
    List.iter
      (fun ((sc : Scenario.t), list) ->
        let span = "Explore.run_once/" ^ sc.Scenario.sc_name in
        let n, secs =
          if List.mem sc.sc_name stack_scenarios then (stack_n, stack_s) else (light_n, light_s)
        in
        List.iter
          (fun (spec, fc) ->
            incr runs;
            let outcome = Spans.with_span spans span (fun () -> Explore.run_once sc ~spec ~fc) in
            Option.iter
              (fun s ->
                incr n;
                secs := !secs +. span_s s)
              (if kind = Traced then Spans.last spans span else None);
            match outcome with
            | Scenario.Pass, trace -> choices := !choices + List.length trace
            | Scenario.Fail msg, _ ->
                problems :=
                  Printf.sprintf "%s under %s: %s" sc.sc_name (Strategy.spec_to_string spec) msg
                  :: !problems)
          list)
      plan;
    let found =
      List.fold_left
        (fun acc (sc : Scenario.t) ->
          let r = Spans.with_span spans ("Explore.explore/" ^ sc.sc_name) (fun () -> Explore.explore sc) in
          runs := !runs + r.Explore.ex_runs;
          match r.Explore.ex_counterexample with
          | Some _ -> acc + 1
          | None ->
              problems := Printf.sprintf "%s: expected bug not found" sc.sc_name :: !problems;
              acc)
        0 buggy
    in
    let rate (n, secs) = if secs > 0. then f n /. secs else 0. in
    let host =
      if kind = Untraced then []
      else
        [
          ("check.stack_runs_per_s", rate (!stack_n, !stack_s));
          ("check.light_runs_per_s", rate (!light_n, !light_s));
        ]
    in
    {
      attempted = List.fold_left (fun a (_, l) -> a + List.length l) 0 plan + List.length buggy;
      failed = List.length !problems;
      problems = List.rev !problems;
      events = 0;
      sim =
        [
          ("check.runs", f !runs);
          ("check.choice_points", f !choices);
          ("check.bugs_found", f found);
        ];
      host;
    }

let all =
  [
    {
      name = "hybrid-gc";
      prepare = hybrid ~bench:"binary-tree-2" ~n:12 ~smoke_n:4 ~expected:Expected.binary_tree_2;
    };
    {
      name = "hybrid-compute";
      prepare = hybrid ~bench:"fannkuch-redux" ~n:8 ~smoke_n:5 ~expected:Expected.fannkuch_redux;
    };
    { name = "fabric-open"; prepare = fabric_open };
    { name = "fabric-shed"; prepare = fabric_shed };
    { name = "check-sweep"; prepare = check_sweep };
  ]
