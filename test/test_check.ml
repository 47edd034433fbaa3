(* mvcheck model-checker tests: strategy semantics, FIFO-hook equivalence
   with the unhooked executor, bounded exploration finding (and shrinking)
   the seeded bugs, replay determinism, counterexample artifact round
   trips, and the golden-trace regression.

   Exploration here runs with small seed budgets so the whole tier stays
   within a few seconds under `dune runtest`; the wide sweeps are `Slow
   (CI runs them via the full tier). *)

module Machine = Mv_engine.Machine
module Exec = Mv_engine.Exec
module Sim = Mv_engine.Sim
module Strategy = Mv_check.Strategy
module Scenario = Mv_check.Scenario
module Scenarios = Mv_check.Scenarios
module Explore = Mv_check.Explore
module Golden = Mv_check.Golden

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let check_trace = Alcotest.(check (list int))

let scenario name =
  match Scenarios.find name with
  | Some sc -> sc
  | None -> Alcotest.failf "scenario %s not registered" name

let outcome_msg = function Scenario.Pass -> "pass" | Scenario.Fail m -> "fail: " ^ m

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

(* --- strategy semantics --- *)

let test_strategy_fifo () =
  let s = Strategy.create Strategy.Fifo in
  check_int "fifo picks head" 0 (Strategy.decide s ~n:5);
  check_int "fifo picks head again" 0 (Strategy.decide s ~n:2);
  check_trace "records defaults" [ 0; 0 ] (Strategy.recorded s)

let test_strategy_replay () =
  let s = Strategy.create (Strategy.Replay [ 2; 9; 1 ]) in
  check_int "in range" 2 (Strategy.decide s ~n:3);
  check_int "out of range -> default" 0 (Strategy.decide s ~n:3);
  check_int "in range" 1 (Strategy.decide s ~n:3);
  check_int "past end -> default" 0 (Strategy.decide s ~n:3);
  check_trace "records what it played" [ 2; 0; 1; 0 ] (Strategy.recorded s)

let test_strategy_random_deterministic () =
  let seq seed =
    let s = Strategy.create (Strategy.Random seed) in
    List.init 64 (fun i -> Strategy.decide s ~n:(1 + (i mod 7)))
  in
  check_trace "same seed, same decisions" (seq 42) (seq 42);
  check_bool "different seed, different decisions" true (seq 42 <> seq 43);
  List.iteri
    (fun i c ->
      check_bool "decision in range" true (c >= 0 && c < 1 + (i mod 7)))
    (seq 42)

(* --- FIFO hook equivalence ---

   The same three-thread workload (charges crossing preemption slices,
   yields, a sleeper) must produce the identical execution — segment
   order and final virtual time — whether the executor runs its native
   FIFO path or a Strategy.Fifo hook answers every choice point. *)

let fifo_workload hooked =
  let machine = Machine.create () in
  let exec = machine.Machine.exec in
  Exec.set_cpu_params exec ~cpu:0 ~slice:(Some 15_000) ();
  if hooked then Strategy.install (Strategy.create Strategy.Fifo) exec;
  let log = ref [] in
  let logf name step = log := Printf.sprintf "%s.%d" name step :: !log in
  for t = 0 to 2 do
    let name = Printf.sprintf "worker-%d" t in
    ignore
      (Exec.spawn exec ~cpu:0 ~name (fun () ->
           for step = 0 to 3 do
             logf name step;
             Exec.charge exec 10_000;
             if step mod 2 = 0 then Exec.yield exec
           done))
  done;
  ignore
    (Exec.spawn exec ~cpu:0 ~name:"sleeper" (fun () ->
         Exec.sleep exec 25_000;
         logf "sleeper" 0));
  Sim.run machine.Machine.sim;
  (List.rev !log, Sim.now machine.Machine.sim)

let test_fifo_hook_equivalence () =
  let log0, t0 = fifo_workload false in
  let log1, t1 = fifo_workload true in
  Alcotest.(check (list string)) "identical segment order" log0 log1;
  check_int "identical final virtual time" t0 t1

(* --- exploration: seeded bugs are found, shrunk, and replayable --- *)

let explore_cx ?(seeds = 10) name =
  let sc = scenario name in
  let r = Explore.explore ~seeds sc in
  match r.Explore.ex_counterexample with
  | Some cx -> cx
  | None -> Alcotest.failf "%s: seeded bug not found in %d runs" name r.Explore.ex_runs

let test_finds_racy_wakeup () =
  let cx = explore_cx "racy-wakeup" in
  check_bool "confirmed by replay" true cx.Explore.cx_confirmed;
  (* The stale-check consumer deadlocks iff it is picked before the
     producer at the first choice point: minimal trace [1]. *)
  check_trace "shrunk to the minimal schedule" [ 1 ] cx.Explore.cx_trace;
  check_bool "message names the stuck consumer" true
    (contains_sub cx.Explore.cx_message "consumer")

let test_finds_broken_dedup () =
  let cx = explore_cx "broken-dedup" in
  check_bool "confirmed by replay" true cx.Explore.cx_confirmed;
  check_bool "at-most-once violation reported" true
    (contains_sub cx.Explore.cx_message "at-most-once");
  (* The duplicate-delivery bug needs no schedule perturbation at all:
     the trace shrinks to pure FIFO. *)
  check_trace "schedule-independent, trace shrinks to []" [] cx.Explore.cx_trace

let test_replay_reproduces () =
  let sc = scenario "racy-wakeup" in
  let cx = explore_cx "racy-wakeup" in
  let outcome1, decisions1 = Explore.replay sc cx in
  let outcome2, decisions2 = Explore.replay sc cx in
  check_string "replay fails identically" (outcome_msg outcome1) (outcome_msg outcome2);
  check_trace "replay decides identically" decisions1 decisions2;
  check_string "replay reproduces the recorded failure"
    ("fail: " ^ cx.Explore.cx_message) (outcome_msg outcome1)

let test_artifact_roundtrip () =
  let cx = explore_cx "racy-wakeup" in
  (match Explore.of_artifact (Explore.to_artifact cx) with
  | Error msg -> Alcotest.failf "artifact did not parse: %s" msg
  | Ok cx' ->
      check_string "scenario survives" cx.Explore.cx_scenario cx'.Explore.cx_scenario;
      check_trace "trace survives" cx.Explore.cx_trace cx'.Explore.cx_trace;
      check_string "message survives" cx.Explore.cx_message cx'.Explore.cx_message;
      check_int "fault seed survives" cx.Explore.cx_fault.Explore.fc_seed
        cx'.Explore.cx_fault.Explore.fc_seed);
  (* A fault-armed counterexample exercises the sites serialization. *)
  let cx = explore_cx "broken-dedup" in
  match Explore.of_artifact (Explore.to_artifact cx) with
  | Error msg -> Alcotest.failf "fault artifact did not parse: %s" msg
  | Ok cx' ->
      check_bool "sites survive" true
        (cx.Explore.cx_fault.Explore.fc_sites = cx'.Explore.cx_fault.Explore.fc_sites);
      check_string "rate survives"
        (string_of_float cx.Explore.cx_fault.Explore.fc_rate)
        (string_of_float cx'.Explore.cx_fault.Explore.fc_rate)

let test_artifact_rejects_garbage () =
  (match Explore.of_artifact "not a counterexample" with
  | Ok _ -> Alcotest.fail "parsed garbage"
  | Error _ -> ());
  match Explore.of_artifact "mvcheck counterexample v1\nscenario: x\n" with
  | Ok _ -> Alcotest.fail "parsed truncated artifact"
  | Error msg -> check_bool "names the missing field" true
      (contains_sub msg "found-by")

(* --- healthy scenarios stay clean under a small sweep --- *)

let assert_clean ~seeds name () =
  let r = Explore.explore ~seeds (scenario name) in
  match r.Explore.ex_counterexample with
  | None -> ()
  | Some cx ->
      Alcotest.failf "%s: unexpected violation %S (trace %s)" name
        cx.Explore.cx_message
        (String.concat "," (List.map string_of_int cx.Explore.cx_trace))

(* --- per-core runqueues + deterministic work stealing --- *)

(* Four straight-line jobs pinned on ROS core 0 with every other ROS core
   idle.  Stealing disabled must keep every segment on core 0; stealing
   enabled must migrate work, and only within the ROS partition. *)
let steal_workload stealing =
  let machine =
    Machine.create ~config:{ Machine.default_config with work_stealing = stealing } ()
  in
  let exec = machine.Machine.exec in
  let ncores = Mv_hw.Topology.ncores machine.Machine.topo in
  let hrt = List.hd (Mv_hw.Topology.cores_of machine.Machine.topo 1) in
  let log = ref [] in
  for t = 0 to 3 do
    let name = Printf.sprintf "job-%d" t in
    ignore
      (Exec.spawn exec ~cpu:0 ~name (fun () ->
           for step = 0 to 2 do
             log :=
               (Printf.sprintf "%s.%d" name step, Exec.cpu_of (Exec.self exec))
               :: !log;
             Exec.charge exec 4_000;
             Exec.yield exec
           done))
  done;
  Sim.run machine.Machine.sim;
  let steals =
    List.fold_left ( + ) 0
      (List.init ncores (fun c -> Exec.steals exec ~cpu:c))
  in
  (List.rev !log, Sim.now machine.Machine.sim, steals, hrt)

let test_stealing_disabled_stays_put () =
  let log, _, steals, _ = steal_workload false in
  check_int "no steals when disabled" 0 steals;
  List.iter
    (fun (seg, cpu) -> check_int (seg ^ " runs on its spawn core") 0 cpu)
    log

let test_stealing_migrates_within_ros () =
  let log0, t0, _, _ = steal_workload false in
  let log1, t1, steals, hrt = steal_workload true in
  check_bool "stealing actually happened" true (steals > 0);
  check_bool "some segment migrated off core 0" true
    (List.exists (fun (_, cpu) -> cpu <> 0) log1);
  List.iter
    (fun (seg, cpu) ->
      check_bool (seg ^ " stays inside the ROS partition") true (cpu < hrt))
    log1;
  (* Same work, run exactly once each, and no slower than the serial run. *)
  let segs l = List.sort compare (List.map fst l) in
  Alcotest.(check (list string)) "identical segment multiset" (segs log0) (segs log1);
  check_bool "parallelism does not lose virtual time" true (t1 <= t0)

(* --- run_bounded --- *)

let test_run_bounded_budget () =
  let machine = Machine.create () in
  let exec = machine.Machine.exec in
  ignore
    (Exec.spawn exec ~cpu:0 ~name:"spinner" (fun () ->
         while true do
           Exec.yield exec
         done));
  check_bool "budget exhausts on a spinner" false
    (Sim.run_bounded machine.Machine.sim ~max_events:1_000);
  let machine = Machine.create () in
  ignore
    (Exec.spawn machine.Machine.exec ~cpu:0 ~name:"one-shot" (fun () -> ()));
  check_bool "finite run quiesces" true
    (Sim.run_bounded machine.Machine.sim ~max_events:1_000)

(* --- the golden-trace regression --- *)

(* Resolved against both the test's own directory (where dune materializes
   the (deps) glob) and the cwd, so the binary also works when executed
   directly from the repo root (as CI's full-tier step does). *)
let golden_path =
  let candidates =
    [
      Filename.concat (Filename.dirname Sys.executable_name)
        "golden/multiverse_default.trace";
      "golden/multiverse_default.trace";
      "test/golden/multiverse_default.trace";
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> List.hd candidates

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let test_golden_trace () =
  let expected =
    try read_file golden_path
    with Sys_error _ ->
      Alcotest.failf
        "missing %s — regenerate with: dune exec bin/mvcheck.exe -- golden > \
         test/%s" golden_path golden_path
  in
  let actual = Golden.trace_string () in
  if actual <> expected then
    Alcotest.failf
      "golden trace diverged (%d bytes, want %d).  If the change is \
       intentional, regenerate with: dune exec bin/mvcheck.exe -- golden > \
       test/%s" (String.length actual) (String.length expected) golden_path

(* The stealing machinery being compiled in must not perturb the canonical
   run: with stealing explicitly disabled, the full hybridized golden
   workload reproduces the committed trace byte-for-byte on the default
   2x4 box. *)
let test_steal_disabled_golden_trace () =
  let module Toolchain = Multiverse.Toolchain in
  let expected =
    try read_file golden_path
    with Sys_error _ -> Alcotest.failf "missing %s" golden_path
  in
  let b = Mv_workloads.Benchmarks.find Golden.benchmark in
  let prog =
    Mv_workloads.Benchmarks.program b ~n:b.Mv_workloads.Benchmarks.b_test_n
  in
  let hx = Toolchain.hybridize prog in
  let machine = { Machine.default_config with work_stealing = false } in
  let rs = Toolchain.run_multiverse ~trace:true ~machine hx in
  let actual =
    Format.asprintf "%a" Mv_engine.Trace.pp
      rs.Toolchain.rs_machine.Machine.trace
  in
  if actual <> expected then
    Alcotest.fail
      "stealing-disabled run diverged from the golden trace (per-core \
       runqueues must be inert when stealing is off)"

(* The installed machine reaches the full-stack scenarios too: with
   --partitions 2 installed, the stack a full-stack scenario boots has two
   cores in HRT partition 1. *)
let test_full_stack_uses_installed_machine () =
  let prog = { Multiverse.Toolchain.prog_name = "probe"; prog_main = (fun _env -> ()) } in
  let hrt_cores = ref [] in
  let probe rt =
    let machine = Mv_aerokernel.Nautilus.machine (Multiverse.Runtime.nk rt) in
    hrt_cores := Mv_hw.Topology.cores_of machine.Machine.topo 1;
    Scenario.Pass
  in
  Scenario.set_machine { Machine.default_config with partitions = [ 2 ] };
  let outcome =
    Fun.protect
      ~finally:(fun () -> Scenario.set_machine Machine.default_config)
      (fun () ->
        Scenarios.run_full ~name:"probe" ~expect_stdout:"" ~extra_checks:[ probe ] prog
          ~strategy:(Strategy.create Strategy.Fifo) ~faults:Mv_faults.Fault_plan.none)
  in
  check_string "clean run" "pass" (outcome_msg outcome);
  check_int "cores in partition 1" 2 (List.length !hrt_cores)

let suite =
  [
    ("strategy: fifo decides 0", `Quick, test_strategy_fifo);
    ("strategy: replay clamps and defaults", `Quick, test_strategy_replay);
    ("strategy: random is seed-deterministic", `Quick, test_strategy_random_deterministic);
    ("fifo hook == unhooked executor", `Quick, test_fifo_hook_equivalence);
    ("sim: run_bounded budget", `Quick, test_run_bounded_budget);
    ("explore: finds + shrinks racy-wakeup to [1]", `Quick, test_finds_racy_wakeup);
    ("explore: finds broken-dedup via fault plan", `Quick, test_finds_broken_dedup);
    ("explore: replay reproduces exactly", `Quick, test_replay_reproduces);
    ("counterexample artifact round-trips", `Quick, test_artifact_roundtrip);
    ("counterexample artifact rejects garbage", `Quick, test_artifact_rejects_garbage);
    ("ping-pong-async clean (small sweep)", `Quick, assert_clean ~seeds:3 "ping-pong-async");
    ("ping-pong-sync clean (small sweep)", `Quick, assert_clean ~seeds:3 "ping-pong-sync");
    ("fabric-batch clean (small sweep)", `Quick, assert_clean ~seeds:3 "fabric-batch");
    ("fabric-degrade clean (small sweep)", `Quick, assert_clean ~seeds:3 "fabric-degrade");
    ("boot-handshake clean (small sweep)", `Quick, assert_clean ~seeds:2 "boot-handshake");
    ("group-respawn clean (small sweep)", `Quick, assert_clean ~seeds:2 "group-respawn");
    ("merge-fault clean (small sweep)", `Quick, assert_clean ~seeds:2 "merge-fault");
    ("multi-group clean (small sweep)", `Quick, assert_clean ~seeds:2 "multi-group");
    ( "full-stack scenarios build the installed machine",
      `Quick, test_full_stack_uses_installed_machine );
    ("golden trace: byte-identical", `Quick, test_golden_trace);
    ("work stealing: disabled stays on its core", `Quick, test_stealing_disabled_stays_put);
    ("work stealing: migrates within the ROS partition", `Quick, test_stealing_migrates_within_ros);
    ("work stealing: disabled reproduces the golden trace", `Quick, test_steal_disabled_golden_trace);
    ("work-steal clean (small sweep)", `Quick, assert_clean ~seeds:2 "work-steal");
    ("ping-pong-async clean (wide sweep)", `Slow, assert_clean ~seeds:25 "ping-pong-async");
    ("fabric-batch clean (wide sweep)", `Slow, assert_clean ~seeds:15 "fabric-batch");
    ("fabric-degrade clean (wide sweep)", `Slow, assert_clean ~seeds:15 "fabric-degrade");
    ("boot-handshake clean (wide sweep)", `Slow, assert_clean ~seeds:15 "boot-handshake");
    ("group-respawn clean (wide sweep)", `Slow, assert_clean ~seeds:15 "group-respawn");
    ("merge-fault clean (wide sweep)", `Slow, assert_clean ~seeds:15 "merge-fault");
    ("multi-group clean (wide sweep)", `Slow, assert_clean ~seeds:10 "multi-group");
    ("work-steal clean (wide sweep)", `Slow, assert_clean ~seeds:15 "work-steal");
  ]
