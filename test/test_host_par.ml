(* The host-side domain pool and the determinism contract of parallel
   sweeps:

   - Pool: results merge in submission order whatever the completion
     order; no task is dropped or duplicated; find_first returns the
     lowest-index hit; exceptions propagate (lowest index first).
   - Rng.substream: indexed derivation is read-only on the parent and
     pairwise non-overlapping over long prefixes.
   - Determinism regression: the same (scenario, seed) produces
     byte-identical trace renders and equal metrics snapshots whether
     machines run alone or concurrently on worker domains; the golden
     trace survives the parallel path; Explore.explore_par returns
     exactly Explore.explore's result.
   - mvcheck CLI: `run` exits nonzero when any scenario fails, and still
     reports every scenario after the first failure.
   - Bad CLI input (an unknown --mode or --porting, a missing replay
     artifact, an unknown bench section) exits 2 with a one-line error
     instead of an uncaught exception or a silent success. *)

module Pool = Mv_host_par.Pool
module Rng = Mv_util.Rng
module Explore = Mv_check.Explore
module Scenarios = Mv_check.Scenarios
module Golden = Mv_check.Golden
module Metrics = Mv_obs.Metrics
module Trace = Mv_engine.Trace
open Multiverse

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let to_alcotest t =
  let name, _, fn = QCheck_alcotest.to_alcotest t in
  (name, `Quick, fn)

(* A little data-dependent spinning so completion order differs from
   submission order under real concurrency. *)
let spin n =
  let acc = ref 0 in
  for i = 1 to 100 * (1 + (n mod 17)) do
    acc := !acc + i
  done;
  ignore !acc

let with_pool jobs f =
  let pool = Pool.create ~jobs in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

(* --- pool properties --- *)

let qcheck_map_order =
  QCheck.Test.make ~name:"pool: map merges in submission order" ~count:30
    QCheck.(pair (int_range 1 6) (list_of_size (Gen.int_range 0 200) small_int))
    (fun (jobs, xs) ->
      let f x =
        spin x;
        (x * 2) + 1
      in
      let xs = Array.of_list xs in
      let expected = Array.map f xs in
      with_pool jobs (fun pool -> Pool.map pool f xs = expected))

let qcheck_map_no_drop_dup =
  QCheck.Test.make ~name:"pool: no task dropped or duplicated" ~count:30
    QCheck.(pair (int_range 1 6) (int_range 0 300))
    (fun (jobs, n) ->
      (* Each task contributes its own index exactly once; the multiset of
         results must be exactly 0..n-1. *)
      let results =
        with_pool jobs (fun pool ->
            Pool.map pool
              (fun i ->
                spin i;
                i)
              (Array.init n (fun i -> i)))
      in
      results = Array.init n (fun i -> i))

let qcheck_find_first_lowest =
  QCheck.Test.make ~name:"pool: find_first returns the lowest-index hit" ~count:50
    QCheck.(pair (int_range 1 6) (list_of_size (Gen.int_range 0 120) (int_bound 30)))
    (fun (jobs, xs) ->
      let xs = Array.of_list xs in
      let f x =
        spin x;
        if x mod 7 = 0 then Some (x * 10) else None
      in
      let expected =
        let rec go i =
          if i >= Array.length xs then None
          else match f xs.(i) with Some r -> Some (i, r) | None -> go (i + 1)
        in
        go 0
      in
      with_pool jobs (fun pool -> Pool.find_first pool f xs = expected))

exception Boom of int

let test_map_raises_lowest () =
  with_pool 4 (fun pool ->
      match
        Pool.map pool
          (fun i ->
            spin (17 - i);
            if i >= 5 then raise (Boom i) else i)
          (Array.init 16 (fun i -> i))
      with
      | exception Boom i -> check_int "lowest raising index" 5 i
      | _ -> Alcotest.fail "expected Boom")

let test_run_inline_jobs1 () =
  (* jobs = 1 must not spawn domains and must evaluate inline, in order. *)
  let order = ref [] in
  let r =
    Pool.run ~jobs:1
      (List.init 5 (fun i () ->
           order := i :: !order;
           i * i))
  in
  Alcotest.(check (list int)) "results" [ 0; 1; 4; 9; 16 ] r;
  Alcotest.(check (list int)) "inline evaluation order" [ 0; 1; 2; 3; 4 ] (List.rev !order)

(* --- Rng substreams --- *)

let draws rng k = List.init k (fun _ -> Rng.next rng)

let test_substream_read_only () =
  let a = Rng.create ~seed:42 in
  let b = Rng.create ~seed:42 in
  ignore (Rng.substream a 0);
  ignore (Rng.substream a 123);
  Alcotest.(check (list int)) "parent stream unperturbed" (draws b 100) (draws a 100)

let test_substream_stable () =
  let sub i = draws (Rng.substream (Rng.create ~seed:7) i) 64 in
  Alcotest.(check (list int)) "same index, same stream" (sub 5) (sub 5);
  check_bool "different index, different stream" true (sub 5 <> sub 6)

let qcheck_substream_nonoverlap =
  QCheck.Test.make
    ~name:"rng: substreams pairwise non-overlapping over 10k draws" ~count:5
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      (* 8 substreams, 10k draws each: no 62-bit value may repeat, within
         a stream or across streams (a collision would mean two streams
         walked through the same splitmix64 state). *)
      let root = Rng.create ~seed in
      let seen = Hashtbl.create (8 * 10_000) in
      let ok = ref true in
      for i = 0 to 7 do
        let rng = Rng.substream root i in
        for _ = 1 to 10_000 do
          let x = Rng.next rng in
          if Hashtbl.mem seen x then ok := false else Hashtbl.add seen x ()
        done
      done;
      !ok)

(* --- machine-level determinism across domains --- *)

let traced_run () =
  let b = Mv_workloads.Benchmarks.find "binary-tree-2" in
  let prog = Mv_workloads.Benchmarks.program b ~n:b.Mv_workloads.Benchmarks.b_test_n in
  let rs = Toolchain.run_multiverse ~trace:true (Toolchain.hybridize prog) in
  let render =
    String.concat "\n"
      (List.map
         (fun r ->
           Printf.sprintf "%d [%s] %s" r.Trace.at r.Trace.category r.Trace.message)
         (Trace.records rs.Toolchain.rs_machine.Mv_engine.Machine.trace))
  in
  (render, Metrics.to_list rs.Toolchain.rs_machine.Mv_engine.Machine.metrics)

let test_concurrent_runs_deterministic () =
  let base_render, base_metrics = traced_run () in
  check_bool "trace is non-trivial" true (String.length base_render > 0);
  check_bool "metrics are non-trivial" true (base_metrics <> []);
  (* Four copies of the same run racing on four domains: each must come
     back byte-identical to the run-alone baseline. *)
  let runs = with_pool 4 (fun pool -> Pool.map pool (fun () -> traced_run ()) (Array.make 4 ())) in
  Array.iteri
    (fun i (render, metrics) ->
      check_string (Printf.sprintf "trace render %d is byte-identical" i) base_render render;
      check_bool (Printf.sprintf "metrics snapshot %d is equal" i) true
        (metrics = base_metrics))
    runs

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

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

let test_golden_through_pool () =
  let expected =
    try read_file golden_path
    with Sys_error _ -> Alcotest.failf "missing %s" golden_path
  in
  (* The canonical traced run, executed on a worker domain while a second
     traced run keeps the other worker busy. *)
  match with_pool 2 (fun pool -> Pool.map pool (fun f -> f ()) [| Golden.trace_string; Golden.trace_string |]) with
  | [| a; b |] ->
      check_string "golden trace on domain 0" expected a;
      check_string "golden trace on domain 1" expected b
  | _ -> assert false

(* --- explore_par ≡ explore --- *)

let scenario name =
  match Scenarios.find name with
  | Some sc -> sc
  | None -> Alcotest.failf "scenario %s not registered" name

let check_explore_equal ~seeds name =
  let sc = scenario name in
  let seq = Explore.explore ~seeds sc in
  let par = with_pool 4 (fun pool -> Explore.explore_par ~pool ~seeds sc) in
  check_int (name ^ ": same ex_runs") seq.Explore.ex_runs par.Explore.ex_runs;
  check_bool (name ^ ": same counterexample") true
    (seq.Explore.ex_counterexample = par.Explore.ex_counterexample)

let test_explore_par_finds_same () = check_explore_equal ~seeds:10 "racy-wakeup"
let test_explore_par_clean_same () = check_explore_equal ~seeds:4 "ping-pong-async"

(* --- CLI exit codes --- *)

let exe path = Filename.concat (Filename.dirname Sys.executable_name) path

let run_exe path args =
  if not (Sys.file_exists path) then Alcotest.failf "binary not built at %s" path;
  let out = Filename.temp_file "cli" ".out" in
  let code =
    Sys.command (Printf.sprintf "%s %s > %s 2>&1" (Filename.quote path) args (Filename.quote out))
  in
  let text = read_file out in
  Sys.remove out;
  (code, text)

let run_mvcheck = run_exe (exe "../bin/mvcheck.exe")

let test_mvcheck_exit_nonzero_and_full_report () =
  (* With zero random seeds the seeded-bug scenarios cannot be found, so
     the sweep must exit 1 — and every scenario must still report, even
     the ones after the first failure. *)
  let code, text = run_mvcheck "run all --seeds 0 --jobs 2" in
  check_int "exit code pins the failure" 1 code;
  List.iter
    (fun sc ->
      check_bool
        (Printf.sprintf "scenario %s reported" sc.Mv_check.Scenario.sc_name)
        true
        (List.exists
           (fun line ->
             String.length line > String.length sc.Mv_check.Scenario.sc_name
             && String.sub line 0 (String.length sc.Mv_check.Scenario.sc_name)
                = sc.Mv_check.Scenario.sc_name)
           (String.split_on_char '\n' text)))
    Scenarios.all_scenarios

let test_mvcheck_exit_zero_when_clean () =
  let code, _ = run_mvcheck "run ping-pong-async --seeds 2 --jobs 2" in
  check_int "clean scenario exits 0" 0 code

(* A usage error: exit 2 (a guest program's own error: exit 1), and the
   first output line is the one-line error naming the binary, never an
   uncaught-exception report. *)
let check_usage_error ?(code = 2) ~prefix (actual, text) =
  check_int (Printf.sprintf "exit code %d" code) code actual;
  let first = List.hd (String.split_on_char '\n' text) in
  check_bool (Printf.sprintf "one-line %s error, got %S" prefix first) true
    (String.length first > String.length prefix
    && String.sub first 0 (String.length prefix) = prefix);
  check_bool "no uncaught exception" false
    (List.exists
       (fun line -> String.length line >= 11 && String.sub line 0 11 = "Fatal error")
       (String.split_on_char '\n' text))

let run_multiverse = run_exe (exe "../bin/multiverse_run.exe")

(* Bad input on every CLI: (test name, run, expected first-line prefix). *)
let usage_cases =
  [
    ( "cli: multiverse_run --mode typo exits 2",
      (fun () -> run_multiverse "-b binary-tree-2 --mode bogus"),
      "multiverse_run: option --mode" );
    ( "cli: multiverse_run --porting typo exits 2",
      (fun () -> run_multiverse "-b binary-tree-2 --mode multiverse --porting bogus"),
      "multiverse_run: option --porting" );
    ( "cli: mvcheck replay of a missing file exits 2",
      (fun () -> run_mvcheck "replay does-not-exist.counterexample"),
      "mvcheck replay: " );
    ( "cli: bench with an unknown section exits 2",
      (fun () -> run_exe (exe "../bench/main.exe") "bogus"),
      "bench: unknown section bogus" );
    ( "cli: multiverse_run --file of a missing file exits 2",
      (fun () -> run_multiverse "--file does-not-exist.scm"),
      "multiverse_run: does-not-exist.scm: " );
    ( "cli: multiverse_run -n 0 exits 2",
      (fun () -> run_multiverse "-b fannkuch-redux -n 0"),
      "multiverse_run: -n must be at least 1" );
    ( "cli: multiverse_run -n -1 exits 2",
      (fun () -> run_multiverse "-b binary-tree-2 -n -1"),
      "multiverse_run: -n must be at least 1" );
    ( "cli: mvtrace with a negative size exits 2",
      (fun () -> run_exe (exe "../bin/mvtrace.exe") "summary binary-tree-2 -3"),
      "mvtrace: N must be at least 1" );
    ( "cli: mvcheck run --seeds -1 exits 2",
      (fun () -> run_mvcheck "run all --seeds -1"),
      "mvcheck run: --seeds -1" );
    ( "cli: multiverse_run --hrt-cores is not an option",
      (fun () -> run_multiverse "-b fasta --hrt-cores 2"),
      "multiverse_run: unknown option" );
    ( "cli: multiverse_run --partitions 8 leaves no ROS core on 2x4",
      (fun () -> run_multiverse "-b fasta --partitions 8"),
      "multiverse_run: --partitions 8 does not leave a ROS core" );
  ]

(* A guest program that fails to parse or run: exit 1 with one line
   naming the program, the same in every mode. *)
let test_guest_errors () =
  List.iter
    (fun (src, message) ->
      let path = Filename.temp_file "guest" ".scm" in
      Out_channel.with_open_bin path (fun oc -> output_string oc src);
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          List.iter
            (fun mode ->
              check_usage_error ~code:1
                ~prefix:
                  (Printf.sprintf "multiverse_run: %s: %s" (Filename.basename path) message)
                (run_multiverse
                   (Printf.sprintf "--file %s --mode %s" (Filename.quote path) mode)))
            [ "native"; "virtual"; "multiverse" ]))
    [ ("(display (car 5))\n", "car: expected pair"); ("(display (+ 1 2)\n", "unterminated") ]

(* --partitions works in every mode, scale mode included. *)
let test_partitions_every_mode () =
  List.iter
    (fun args ->
      let code, text = run_multiverse args in
      if code <> 0 then Alcotest.failf "%s: exit %d\n%s" args code text)
    [
      "-b fasta -q --mode native --partitions 2";
      "-b fasta -q --mode virtual --partitions 2,1";
      "-b fasta -q --mode multiverse --partitions 2";
      "--groups 50 --partitions 4";
    ]

let suite =
  [
    to_alcotest qcheck_map_order;
    to_alcotest qcheck_map_no_drop_dup;
    to_alcotest qcheck_find_first_lowest;
    ("pool: map re-raises the lowest-index exception", `Quick, test_map_raises_lowest);
    ("pool: jobs=1 runs inline in order", `Quick, test_run_inline_jobs1);
    ("rng: substream leaves the parent untouched", `Quick, test_substream_read_only);
    ("rng: substream is stable per index", `Quick, test_substream_stable);
    to_alcotest qcheck_substream_nonoverlap;
    ( "determinism: concurrent machines render identical traces + metrics",
      `Quick, test_concurrent_runs_deterministic );
    ("determinism: golden trace through a 2-domain pool", `Quick, test_golden_through_pool);
    ("explore_par = explore on a seeded bug", `Quick, test_explore_par_finds_same);
    ("explore_par = explore on a clean scenario", `Quick, test_explore_par_clean_same);
    ( "mvcheck run: nonzero exit + full report on failure",
      `Quick, test_mvcheck_exit_nonzero_and_full_report );
    ("mvcheck run: zero exit on a clean sweep", `Quick, test_mvcheck_exit_zero_when_clean);
    ("cli: a guest program error exits 1 in every mode", `Quick, test_guest_errors);
    ("cli: --partitions works in every mode", `Quick, test_partitions_every_mode);
  ]
  @ List.map
      (fun (name, run, prefix) -> (name, `Quick, fun () -> check_usage_error ~prefix (run ())))
      usage_cases
