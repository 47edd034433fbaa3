(* mvtrace: run a workload with event tracing and analyze its Linux-ABI
   interactions and ROS<->HRT crossings — the analysis a developer does
   before deciding what to port to the AeroKernel (the paper's
   incremental model: "identify hot spots in the legacy interface").

     dune exec bin/mvtrace.exe -- summary binary-tree-2 [n] [--mode multiverse]
     dune exec bin/mvtrace.exe -- critical-path binary-tree-2 --mode multiverse
     dune exec bin/mvtrace.exe -- export-chrome fasta 500 --out fasta.trace.json
     dune exec bin/mvtrace.exe -- export-folded binary-tree-2 --mode virtual

   Bare `mvtrace BENCH [N] [--mode MODE]` runs `summary`. *)

open Multiverse
module Args = Mv_util.Args
module Machine = Mv_engine.Machine
module Tracer = Mv_obs.Tracer

let modes = [ "native"; "virtual"; "multiverse" ]

let run_traced ~bench ~n ~mode =
  match Mv_workloads.Benchmarks.find bench with
  | exception Not_found ->
      Printf.eprintf "mvtrace: unknown benchmark %S (see multiverse_run --list)\n" bench;
      exit 2
  | b ->
      let n = Option.value n ~default:b.Mv_workloads.Benchmarks.b_test_n in
      if n < 1 then begin
        Printf.eprintf "mvtrace: N must be at least 1 (got %d)\n" n;
        exit 2
      end;
      let prog = Mv_workloads.Benchmarks.program b ~n in
      let rs =
        match mode with
        | "native" -> Toolchain.run_native ~trace:true prog
        | "virtual" -> Toolchain.run_virtual ~trace:true prog
        | "multiverse" -> Toolchain.run_multiverse ~trace:true (Toolchain.hybridize prog)
        | m ->
            Printf.eprintf "mvtrace: unknown mode %S (%s)\n" m (String.concat " | " modes);
            exit 2
      in
      (rs, n)

(* --- shared CLI pieces --- *)

let bench_arg =
  Args.pos Args.string ~index:0 ~docv:"BENCH"
    ~doc:"Benchmark name (default binary-tree-2)."

let n_arg = Args.pos Args.int ~index:1 ~docv:"N" ~doc:"Problem size (integer)."

let mode_arg =
  Args.opt Args.string ~default:"native" ~names:[ "mode"; "m" ] ~docv:"MODE"
    ~doc:"native | virtual | multiverse."

let with_bench bench n mode f =
  let bench = Option.value bench ~default:"binary-tree-2" in
  let rs, n = run_traced ~bench ~n ~mode in
  f ~bench ~n ~mode rs

(* --- summary (the legacy mvtrace output) --- *)

let summary bench n mode raw =
  with_bench bench n mode @@ fun ~bench ~n ~mode rs ->
  Printf.printf "tracing %s (n=%d) under %s...\n%!" bench n mode;
  let records =
    Mv_engine.Trace.records_in rs.Toolchain.rs_machine.Machine.trace
      ~category:"pagefault"
  in
  Printf.printf "\nwall %.4f s | %d syscalls | %d page faults (%d traced)\n\n"
    (Toolchain.wall_seconds rs) (Toolchain.total_syscalls rs)
    rs.Toolchain.rs_rusage.Mv_ros.Rusage.minflt (List.length records);
  (* Fault histogram by VMA kind: which memory is faulting? *)
  let by_kind = Mv_util.Histogram.create () in
  let writes = ref 0 in
  List.iter
    (fun r ->
      let msg = r.Mv_engine.Trace.message in
      (match String.index_opt msg '=' with
      | Some _ -> (
          (* "pid=1 vma=<kind>+<off> w=<bool>" *)
          match String.split_on_char ' ' msg with
          | [ _pid; vma; w ] ->
              let kind =
                match String.split_on_char '=' vma with
                | [ _; v ] -> (
                    match String.index_opt v '+' with
                    | Some i -> String.sub v 0 i
                    | None -> v)
                | _ -> "?"
              in
              Mv_util.Histogram.incr by_kind kind;
              if w = "w=true" then incr writes
          | _ -> Mv_util.Histogram.incr by_kind "?")
      | None -> Mv_util.Histogram.incr by_kind "?"))
    records;
  Printf.printf "page faults by memory region (porting targets on top):\n";
  Format.printf "%a@." (Mv_util.Histogram.pp_bars ~width:36) by_kind;
  Printf.printf "writes: %d / reads: %d\n\n" !writes (List.length records - !writes);
  Printf.printf "system calls:\n";
  Format.printf "%a@." (Mv_util.Histogram.pp_bars ~width:36) rs.Toolchain.rs_syscalls;
  if raw > 0 then begin
    Printf.printf "\nfirst %d fault records:\n" raw;
    List.iteri
      (fun i r ->
        if i < raw then
          Printf.printf "  [%12d cyc] %s\n" r.Mv_engine.Trace.at
            r.Mv_engine.Trace.message)
      records
  end;
  0

(* --- critical-path: per-crossing cycle attribution --- *)

let critical_path bench n mode =
  with_bench bench n mode @@ fun ~bench ~n ~mode rs ->
  Printf.printf "critical path: %s (n=%d) under %s\n\n%!" bench n mode;
  let obs = rs.Toolchain.rs_machine.Machine.obs in
  let report = Mv_obs.Critical_path.compute (Tracer.spans obs) in
  if report.Mv_obs.Critical_path.rows = [] then begin
    Printf.printf "no ROS<->HRT crossings recorded (mode %s)\n" mode;
    0
  end
  else begin
    Format.printf "%a@." Mv_obs.Critical_path.pp report;
    0
  end

(* --- exporters --- *)

let write_output ~out ~default data =
  let path = Option.value out ~default in
  if path = "-" then begin
    print_string data;
    0
  end
  else begin
    let oc = open_out path in
    output_string oc data;
    close_out oc;
    Printf.printf "wrote %s (%d bytes)\n" path (String.length data);
    0
  end

let export_chrome bench n mode out =
  with_bench bench n mode @@ fun ~bench ~n:_ ~mode rs ->
  let machine = rs.Toolchain.rs_machine in
  let data =
    Mv_obs.Export.chrome
      ~process_name:(Printf.sprintf "%s/%s" bench mode)
      ~metrics:machine.Machine.metrics
      ~instants:(Mv_engine.Trace.instants machine.Machine.trace)
      machine.Machine.obs
  in
  write_output ~out ~default:(Printf.sprintf "mvtrace-%s-%s.json" bench mode) data

let export_folded bench n mode out =
  with_bench bench n mode @@ fun ~bench ~n:_ ~mode rs ->
  let data = Mv_obs.Export.folded rs.Toolchain.rs_machine.Machine.obs in
  write_output ~out ~default:(Printf.sprintf "mvtrace-%s-%s.folded" bench mode) data

(* --- wiring --- *)

let out_arg =
  Args.opt_opt Args.string ~names:[ "out"; "o" ] ~docv:"FILE"
    ~doc:"Output file ('-' for stdout)."

let () =
  let open Args in
  let base term = const term $ bench_arg $ n_arg $ mode_arg in
  let summary_cmd =
    cmd "summary" ~doc:"Syscall/page-fault porting analysis (the default)"
      (base summary
      $ opt int ~default:0 ~names:[ "raw" ] ~docv:"K"
          ~doc:"Also print the first K raw fault records.")
      (fun code -> code)
  in
  let critical_cmd =
    cmd "critical-path"
      ~doc:"Attribute forwarded-crossing cycles to guest/transport/service/reply"
      (base critical_path) (fun code -> code)
  in
  let chrome_cmd =
    cmd "export-chrome" ~doc:"Write a Chrome trace-event JSON of the run"
      (base export_chrome $ out_arg)
      (fun code -> code)
  in
  let folded_cmd =
    cmd "export-folded" ~doc:"Write collapsed flamegraph stacks of the run"
      (base export_folded $ out_arg)
      (fun code -> code)
  in
  exit
    (run_group ~name:"mvtrace"
       ~doc:
         "Trace a workload on the Multiverse simulation and analyze where \
          its time and Linux-ABI interactions go"
       ~default:"summary"
       [ summary_cmd; critical_cmd; chrome_cmd; folded_cmd ]
       (List.tl (Array.to_list Sys.argv)))
