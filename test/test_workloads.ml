(* Tests for the Benchmarks Game workloads: reference outputs (several are
   published constants of the benchmark suite), cross-mode behavioural
   equivalence, and the system-utilization characteristics behind
   Figures 10-12. *)

module H = Mv_util.Histogram
open Multiverse
open Mv_workloads

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let run_native ?n b =
  let n = match n with Some n -> n | None -> b.Benchmarks.b_test_n in
  Toolchain.run_native (Benchmarks.program b ~n)

let test_binary_tree_output () =
  let rs = run_native (Benchmarks.find "binary-tree-2") in
  check_string "reference output"
    "stretch tree of depth 7\t check: -1\n\
     128\t trees of depth 4\t check: -128\n\
     32\t trees of depth 6\t check: -32\n\
     long lived tree of depth 6\t check: -1\n"
    rs.Toolchain.rs_stdout

let test_fannkuch_output () =
  (* Published reference: for n=6 the checksum is 49 and the maximum flip
     count is 10; for n=7 they are 228 and 16. *)
  let rs = run_native (Benchmarks.find "fannkuch-redux") in
  check_string "n=6" "49\nPfannkuchen(6) = 10\n" rs.Toolchain.rs_stdout;
  let rs7 = run_native ~n:7 (Benchmarks.find "fannkuch-redux") in
  check_string "n=7" "228\nPfannkuchen(7) = 16\n" rs7.Toolchain.rs_stdout

let test_nbody_output () =
  (* Published reference for n=1000 steps: -0.169075164 / -0.169086185.
     At our test size (100 steps) the initial energy is the same known
     constant. *)
  let rs = run_native (Benchmarks.find "n-body") in
  let lines = String.split_on_char '\n' rs.Toolchain.rs_stdout in
  (match lines with
  | first :: _ -> check_string "initial energy (published)" "-0.169075164" first
  | [] -> Alcotest.fail "no output");
  let rs1000 = run_native ~n:1000 (Benchmarks.find "n-body") in
  check_string "advanced energy at 1000 steps (published)"
    "-0.169075164\n-0.169087605\n" rs1000.Toolchain.rs_stdout

let test_spectral_norm_output () =
  (* Published reference: 1.274219991 for n=100. *)
  let rs = run_native ~n:100 (Benchmarks.find "spectral-norm") in
  check_string "spectral norm n=100" "1.274219991\n" rs.Toolchain.rs_stdout

let test_fasta_outputs_match () =
  (* fasta and fasta-3 are two implementations of the same specification:
     byte-identical output required. *)
  let out1 = (run_native (Benchmarks.find "fasta")).Toolchain.rs_stdout in
  let out3 = (run_native (Benchmarks.find "fasta-3")).Toolchain.rs_stdout in
  check_string "fasta = fasta-3" out1 out3;
  check_bool "header present" true
    (String.length out1 > 22 && String.sub out1 0 22 = ">ONE Homo sapiens alu\n")

let test_fasta_deterministic_lcg () =
  (* The benchmark's LCG (seed 42, IM 139968) makes the random sections
     deterministic; this prefix is from the published n=1000 output. *)
  let rs = run_native (Benchmarks.find "fasta") in
  let lines = String.split_on_char '\n' rs.Toolchain.rs_stdout in
  let rec drop_until = function
    | [] -> []
    | l :: _ as rest when l = ">TWO IUB ambiguity codes" -> rest
    | _ :: rest -> drop_until rest
  in
  let two = drop_until lines in
  match two with
  | _ :: first_random :: _ ->
      check_string "first random line"
        "cttBtatcatatgctaKggNcataaaSatgtaaaDcDRtBggDtctttataattcBgtcg" first_random
  | _ -> Alcotest.fail "missing TWO section"

let test_mandelbrot_output () =
  let rs = run_native (Benchmarks.find "mandelbrot-2") in
  let out = rs.Toolchain.rs_stdout in
  check_bool "P4 header" true (String.length out > 9 && String.sub out 0 9 = "P4\n16 16\n");
  (* 16x16 pixels, 2 bytes per row after the header. *)
  check_int "bitmap size" (9 + 32) (String.length out)

let test_gc_heavy_profile () =
  (* binary-tree-2's syscalls are dominated by GC and timer support
     (Figure 12): mmap/munmap/mprotect + rt_sigreturn + gettimeofday. *)
  let rs = run_native ~n:12 (Benchmarks.find "binary-tree-2") in
  let c name = H.count rs.Toolchain.rs_syscalls name in
  check_bool "munmap heavy" true (c "munmap" > 10);
  check_bool "mmap heavy" true (c "mmap" > 20);
  check_bool "mprotect traffic" true (c "mprotect" > 30);
  check_bool "barrier sigreturns" true (c "rt_sigreturn" > 20);
  check_bool "timer chatter" true (c "gettimeofday" > 100);
  (* With transparent 2M promotion a single fault populates a whole 512-page
     chunk, so count demand-paged 4K-equivalents rather than raw faults. *)
  let ru = rs.Toolchain.rs_rusage in
  let pages_demand_paged =
    ru.Mv_ros.Rusage.minflt
    + (Mv_hw.Addr.pages_per_2m - 1) * ru.Mv_ros.Rusage.huge_promotions
  in
  check_bool "plenty of demand paging" true (pages_demand_paged > 5000);
  check_bool "GC heap promoted to huge pages" true
    (ru.Mv_ros.Rusage.huge_promotions > 0)

let test_fasta_write_profile () =
  (* fasta is output-bound: write dominates the syscall mix (Figure 10's
     29989 syscalls for fasta are mostly writes). *)
  let rs = run_native ~n:2000 (Benchmarks.find "fasta") in
  let writes = H.count rs.Toolchain.rs_syscalls "write" in
  let out_bytes = String.length rs.Toolchain.rs_stdout in
  check_bool "output volume" true (out_bytes > 20_000);
  (* One write per 4 KiB stdio buffer. *)
  check_bool "writes scale with output" true (writes >= out_bytes / 4096);
  (* And far more writes than a compute-bound benchmark issues. *)
  let rs_fk = run_native (Benchmarks.find "fannkuch-redux") in
  check_bool "more writes than fannkuch" true
    (writes > H.count rs_fk.Toolchain.rs_syscalls "write")

(* The hybridized runtime must behave identically on every benchmark, the
   headline claim of the paper end to end: in all three modes the same
   stdout, the same exit code, and the same syscall histogram up to the
   runtime's own calls. *)
let check_equivalence ?machine () =
  List.iter
    (fun b ->
      let name = b.Benchmarks.b_name in
      let prog = Benchmarks.program b ~n:b.Benchmarks.b_test_n in
      let rs_n = Toolchain.run_native ?machine prog in
      let rs_v = Toolchain.run_virtual ?machine prog in
      let rs_m = Toolchain.run_multiverse ?machine (Toolchain.hybridize prog) in
      List.iter
        (fun rs ->
          let mode = rs.Toolchain.rs_mode in
          check_string (name ^ " " ^ mode ^ " output identical") rs_n.Toolchain.rs_stdout
            rs.Toolchain.rs_stdout;
          check_int (name ^ " " ^ mode ^ " exit code") 0 rs.Toolchain.rs_exit_code)
        [ rs_n; rs_v; rs_m ];
      Test_multiverse.check_syscalls_agree ~what:name rs_n rs_v rs_m;
      check_bool (name ^ " multiverse slower") true
        (rs_m.Toolchain.rs_wall_cycles > rs_n.Toolchain.rs_wall_cycles))
    Benchmarks.all

let test_multiverse_equivalence_small () = check_equivalence ()

let test_multiverse_equivalence_machines () =
  (* The same on a bigger box with two HRT partitions and 4 KiB pages
     only, and on the reference box with work stealing on. *)
  let open Mv_engine.Machine in
  check_equivalence
    ~machine:
      {
        default_config with
        sockets = 4;
        cores_per_socket = 8;
        partitions = [ 2; 1 ];
        huge_pages = false;
      }
    ();
  check_equivalence ~machine:{ default_config with work_stealing = true } ()

let test_runtime_ordering () =
  (* Figure 13's ordering for a GC-heavy benchmark: native <= virtual <
     multiverse. *)
  let b = Benchmarks.find "binary-tree-2" in
  let prog = Benchmarks.program b ~n:8 in
  let w_n = (Toolchain.run_native prog).Toolchain.rs_wall_cycles in
  let w_v = (Toolchain.run_virtual prog).Toolchain.rs_wall_cycles in
  let w_m = (Toolchain.run_multiverse (Toolchain.hybridize prog)).Toolchain.rs_wall_cycles in
  check_bool "native <= virtual" true (w_n <= w_v);
  check_bool "virtual < multiverse" true (w_v < w_m)

let test_determinism () =
  (* The whole simulation is deterministic: two runs of the same workload
     agree cycle-for-cycle in every mode. *)
  let b = Benchmarks.find "n-body" in
  let prog = Benchmarks.program b ~n:200 in
  let n1 = Toolchain.run_native prog and n2 = Toolchain.run_native prog in
  check_int "native cycles identical" n1.Toolchain.rs_wall_cycles n2.Toolchain.rs_wall_cycles;
  check_string "native stdout identical" n1.Toolchain.rs_stdout n2.Toolchain.rs_stdout;
  let hx = Toolchain.hybridize prog in
  let m1 = Toolchain.run_multiverse hx and m2 = Toolchain.run_multiverse hx in
  check_int "multiverse cycles identical" m1.Toolchain.rs_wall_cycles m2.Toolchain.rs_wall_cycles

(* --- the open-loop fabric load generator --- *)

let lg_small =
  {
    Loadgen.default_config with
    Loadgen.lg_groups = 40;
    lg_calls_per_group = 3;
    lg_offered_cps = 40_000.0;
  }

let test_loadgen_smoke () =
  (* Uncontended, admission off: every issued call completes, nothing is
     dropped, and the latency recorder saw every completion. *)
  let r = Loadgen.run lg_small in
  check_int "issued" (40 * 3) r.Loadgen.r_issued;
  check_int "completed = issued" r.Loadgen.r_issued r.Loadgen.r_completed;
  check_int "dropped" 0 r.Loadgen.r_dropped;
  check_bool "throughput positive" true (r.Loadgen.r_throughput_cps > 0.0);
  check_bool "p50 <= p99" true (r.Loadgen.r_p50_us <= r.Loadgen.r_p99_us);
  check_int "no sheds without admission" 0 r.Loadgen.r_sheds

let test_loadgen_overload_sheds () =
  (* Far past the knee with a starved token bucket: the admission gate
     must shed, every issued call must still be accounted for (completed
     or dropped), and the run must quiesce (Sim.run returning at all). *)
  let ad = Mv_hvm.Fabric.make_admission ~rate:1e-6 ~burst:1 ~shed_retries:1 () in
  let r =
    Loadgen.run
      {
        lg_small with
        Loadgen.lg_offered_cps = 4_000_000.0;
        lg_admission = Some ad;
      }
  in
  check_int "issued all accounted" r.Loadgen.r_issued
    (r.Loadgen.r_completed + r.Loadgen.r_dropped);
  check_bool "sheds occurred" true (r.Loadgen.r_sheds > 0);
  check_bool "drops occurred" true (r.Loadgen.r_dropped > 0)

let test_loadgen_bursty_deterministic () =
  (* The generator is part of the simulation: identical configs agree on
     every field, including the bursty schedule. *)
  let cfg = { lg_small with Loadgen.lg_arrival = Loadgen.Bursty } in
  let a = Loadgen.run cfg and b = Loadgen.run cfg in
  check_int "completed identical" a.Loadgen.r_completed b.Loadgen.r_completed;
  check_int "makespan identical" a.Loadgen.r_makespan b.Loadgen.r_makespan;
  check_bool "p99 identical" true (a.Loadgen.r_p99_us = b.Loadgen.r_p99_us)

let test_loadgen_rejects_bad_rates () =
  (* A rate that is not finite and positive, or so low that the arrival
     schedule would overflow the cycle clock, is rejected up front: 1e-300
     would otherwise wrap [exp_draw] to one-cycle gaps and run at the
     maximum rate. *)
  List.iter
    (fun cps ->
      match Loadgen.run { lg_small with Loadgen.lg_offered_cps = cps } with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "offered %g calls/s ran" cps)
    [ nan; infinity; neg_infinity; 0.0; -1.0; 1e-300 ]

let suite =
  [
    ("binary-tree-2: reference output", `Quick, test_binary_tree_output);
    ("fannkuch-redux: published values", `Quick, test_fannkuch_output);
    ("n-body: published energies", `Quick, test_nbody_output);
    ("spectral-norm: published value", `Slow, test_spectral_norm_output);
    ("fasta vs fasta-3: identical output", `Quick, test_fasta_outputs_match);
    ("fasta: deterministic LCG sequence", `Quick, test_fasta_deterministic_lcg);
    ("mandelbrot-2: P4 bitmap", `Quick, test_mandelbrot_output);
    ("binary-tree-2: GC syscall profile (Fig 12)", `Slow, test_gc_heavy_profile);
    ("fasta: write-dominated profile (Fig 10)", `Quick, test_fasta_write_profile);
    ("multiverse equivalence on benchmarks", `Quick, test_multiverse_equivalence_small);
    ("multiverse equivalence on other machines", `Slow, test_multiverse_equivalence_machines);
    ("native <= virtual < multiverse (Fig 13)", `Quick, test_runtime_ordering);
    ("simulation is deterministic", `Quick, test_determinism);
    ("loadgen: open-loop smoke, admission off", `Quick, test_loadgen_smoke);
    ("loadgen: overload sheds, all calls accounted", `Quick, test_loadgen_overload_sheds);
    ("loadgen: bursty schedule deterministic", `Quick, test_loadgen_bursty_deterministic);
    ("loadgen: rejects non-finite and overflowing rates", `Quick, test_loadgen_rejects_bad_rates);
  ]
