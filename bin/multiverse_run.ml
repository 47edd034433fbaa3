(* multiverse_run: run a benchmark (or a Scheme file) under a chosen
   execution mode on the simulated machine, and report the paper's
   metrics.

   Examples:
     dune exec bin/multiverse_run.exe -- --bench binary-tree-2 --mode multiverse
     dune exec bin/multiverse_run.exe -- --bench n-body -n 500 --mode native --stats
     dune exec bin/multiverse_run.exe -- --file prog.scm --mode multiverse --porting full
     dune exec bin/multiverse_run.exe -- --list *)

open Multiverse
module Args = Mv_util.Args
module Fault_plan = Mv_faults.Fault_plan
module Fabric = Mv_hvm.Fabric
module Machine = Mv_engine.Machine

let parse_fault_sites spec =
  match Fault_plan.sites_of_string spec with
  | Ok sites -> sites
  | Error msg -> failwith msg

type mode = Native | Virtual | Multiverse

let placements = [ ("spread", Fabric.Spread); ("affine", Fabric.Affine) ]

let run_one ~mode ~machine ~options ~stats ~quiet prog =
  let faults = options.Toolchain.mv_faults in
  (* A fault run keeps the trace on so the injected faults and the
     resilience reactions can be shown afterwards. *)
  let trace = Fault_plan.enabled faults in
  let rs =
    match mode with
    | Native -> Toolchain.run_native ~machine prog
    | Virtual -> Toolchain.run_virtual ~machine prog
    | Multiverse -> Toolchain.run_multiverse ~machine ~trace ~options (Toolchain.hybridize prog)
  in
  if not quiet then print_string rs.Toolchain.rs_stdout;
  Printf.eprintf "\n[%s] wall %.4f s | %d syscalls | %d page faults | maxrss %d KB | exit %d\n"
    rs.Toolchain.rs_mode (Toolchain.wall_seconds rs) (Toolchain.total_syscalls rs)
    rs.Toolchain.rs_rusage.Mv_ros.Rusage.minflt rs.Toolchain.rs_rusage.Mv_ros.Rusage.maxrss_kb
    rs.Toolchain.rs_exit_code;
  (match rs.Toolchain.rs_runtime with
  | Some rt ->
      let nk = Runtime.nk rt in
      Printf.eprintf
        "[multiverse] groups %d | forwarded: %d syscalls, %d faults | re-merges %d | local faults %d\n"
        (Runtime.groups_created rt)
        (Mv_aerokernel.Nautilus.stats_syscalls_forwarded nk)
        (Mv_aerokernel.Nautilus.stats_faults_forwarded nk)
        (Mv_aerokernel.Nautilus.stats_remerges nk)
        (Runtime.faults_serviced_locally rt);
      if Fault_plan.enabled faults then begin
        let fb = Runtime.fabric rt in
        Printf.eprintf "[faults] %s | retries %d | fallbacks %d | respawns %d | reroutes %d\n"
          (Format.asprintf "%a" Fault_plan.pp_summary faults)
          (Fabric.retries fb) (Fabric.fallbacks fb) (Fabric.respawns fb) (Fabric.reroutes fb);
        let trace = rs.Toolchain.rs_machine.Mv_engine.Machine.trace in
        let dump category =
          List.iter
            (fun r ->
              Printf.eprintf "  %12d [%s] %s\n" r.Mv_engine.Trace.at
                r.Mv_engine.Trace.category r.Mv_engine.Trace.message)
            (Mv_engine.Trace.records_in trace ~category)
        in
        Printf.eprintf "[fault trace]\n";
        dump "fault";
        Printf.eprintf "[resilience trace]\n";
        dump "resilience"
      end
  | None -> ());
  if stats then begin
    Printf.eprintf "\nsystem calls:\n";
    List.iter
      (fun (name, count) -> Printf.eprintf "  %-20s %8d\n" name count)
      (Mv_util.Histogram.to_sorted_list rs.Toolchain.rs_syscalls)
  end

let usage_error msg =
  prerr_endline ("multiverse_run: " ^ msg);
  2

(* A guest program that fails to parse, compile or run is the program's
   error, not a usage error: one line naming the program, exit 1. *)
let with_guest_errors prog f =
  try f () with
  | Mv_racket.Vm.Scheme_error msg
  | Mv_racket.Sexp.Parse_error msg
  | Mv_racket.Compile.Compile_error msg ->
      Printf.eprintf "multiverse_run: %s: %s\n" prog.Toolchain.prog_name msg;
      1

(* --fault-sweep: the same program under fault seeds 1..N, one fresh
   machine per seed, optionally fanned out over worker domains.  Cells
   are domain-confined (each hybridizes its own copy) and return rows;
   all printing happens afterwards in seed order, so the report is
   identical at any --jobs. *)
type sweep_row = {
  sw_seed : int;
  sw_exit : int;
  sw_injected : int;
  sw_retries : int;
  sw_fallbacks : int;
  sw_respawns : int;
  sw_reroutes : int;
  sw_wall : float;
}

let run_fault_sweep ~machine ~options ~rate ~sites ~sweep ~jobs prog =
  let cell seed =
    let faults = Fault_plan.create ~seed ~rate ~sites () in
    let options = { options with Toolchain.mv_faults = faults } in
    let rs = Toolchain.run_multiverse ~machine ~options (Toolchain.hybridize prog) in
    let retries, fallbacks, respawns, reroutes =
      match rs.Toolchain.rs_runtime with
      | Some rt ->
          let fb = Runtime.fabric rt in
          (Fabric.retries fb, Fabric.fallbacks fb, Fabric.respawns fb, Fabric.reroutes fb)
      | None -> (0, 0, 0, 0)
    in
    {
      sw_seed = seed;
      sw_exit = rs.Toolchain.rs_exit_code;
      sw_injected = Fault_plan.injected faults;
      sw_retries = retries;
      sw_fallbacks = fallbacks;
      sw_respawns = respawns;
      sw_reroutes = reroutes;
      sw_wall = Toolchain.wall_seconds rs;
    }
  in
  let rows =
    Mv_host_par.Pool.run ~jobs (List.init sweep (fun i () -> cell (i + 1)))
  in
  Printf.printf "[fault-sweep] %d seeds | rate %.3f | sites %s\n" sweep rate
    (Fault_plan.sites_to_string sites);
  Printf.printf "%6s %6s %9s %8s %10s %9s %9s %10s\n" "seed" "exit" "injected" "retries"
    "fallbacks" "respawns" "reroutes" "wall(s)";
  List.iter
    (fun r ->
      Printf.printf "%6d %6d %9d %8d %10d %9d %9d %10.4f\n" r.sw_seed r.sw_exit
        r.sw_injected r.sw_retries r.sw_fallbacks r.sw_respawns r.sw_reroutes r.sw_wall)
    rows;
  let tot f = List.fold_left (fun acc r -> acc + f r) 0 rows in
  let failures = List.filter (fun r -> r.sw_exit <> 0) rows in
  Printf.printf
    "[fault-sweep] injected %d | retries %d | fallbacks %d | respawns %d | reroutes %d | \
     survived %d/%d\n"
    (tot (fun r -> r.sw_injected))
    (tot (fun r -> r.sw_retries))
    (tot (fun r -> r.sw_fallbacks))
    (tot (fun r -> r.sw_respawns))
    (tot (fun r -> r.sw_reroutes))
    (sweep - List.length failures)
    sweep;
  if failures = [] then 0
  else begin
    Printf.eprintf "multiverse_run: fault sweep: %d of %d seeds exited nonzero (first: seed %d)\n"
      (List.length failures) sweep
      (List.hd failures).sw_seed;
    1
  end

(* --groups: the open-loop scale mode (no program; the load generator
   drives the fabric directly). *)
let run_scale ~machine ~options ~groups ~arrival ~offered_load ~admission =
  let open Mv_workloads.Loadgen in
  match
    match arrival_of_string arrival with
    | None -> Error ("unknown arrival process: " ^ arrival ^ " (poisson | bursty)")
    | Some arr -> (
        match admission with
        | "off" -> Ok (arr, None)
        | "shed" -> Ok (arr, Some (Fabric.make_admission ~policy:Fabric.Shed ()))
        | "block" -> Ok (arr, Some (Fabric.make_admission ~policy:Fabric.Block ()))
        | other -> Error ("unknown admission policy: " ^ other ^ " (off | shed | block)"))
  with
  | Error msg -> usage_error msg
  | Ok _ when groups < 1 || groups > 100_000 ->
      usage_error "--groups must be between 1 and 100000"
  | Ok _ when offered_load <= 0.0 -> usage_error "--offered-load must be positive"
  | Ok (arr, adm) ->
      let cfg =
        {
          default_config with
          lg_groups = groups;
          lg_arrival = arr;
          lg_offered_cps = offered_load;
          lg_admission = adm;
          lg_kind = options.Toolchain.mv_channel;
          lg_machine = machine;
          lg_placement = options.Toolchain.mv_placement;
        }
      in
      match run cfg with
      | exception Invalid_argument msg -> usage_error msg
      | r ->
      Printf.printf
        "[scale] %d groups | %s arrivals | offered %.0f calls/s | admission %s | %dx%d \
         cores (%d hrt) | placement %s\n"
        groups arrival offered_load admission machine.Machine.sockets
        machine.Machine.cores_per_socket
        (List.fold_left ( + ) 0 machine.Machine.partitions)
        (fst (List.find (fun (_, p) -> p = options.Toolchain.mv_placement) placements));
      Printf.printf
        "[scale] issued %d | completed %d | dropped %d | throughput %.0f calls/s\n"
        r.r_issued r.r_completed r.r_dropped r.r_throughput_cps;
      Printf.printf "[scale] sojourn p50 %.1f us | p95 %.1f us | p99 %.1f us\n" r.r_p50_us
        r.r_p95_us r.r_p99_us;
      Printf.printf
        "[scale] ring high-water %d | sheds %d | shed retries %d | blocked %d | watchdog \
         flips %d restores %d\n"
        r.r_ring_hw r.r_sheds r.r_shed_retries r.r_blocked r.r_shed_flips r.r_shed_restores;
      0

let prog_of ~bench ~file ~n =
  match (bench, file) with
  | Some name, _ -> (
      match Mv_workloads.Benchmarks.find name with
      | b -> (
          match Option.value n ~default:b.Mv_workloads.Benchmarks.b_test_n with
          | n when n < 1 -> Error (Printf.sprintf "-n must be at least 1 (got %d)" n)
          | n -> Ok (Mv_workloads.Benchmarks.program b ~n))
      | exception Not_found -> Error ("unknown benchmark " ^ name))
  | None, Some path -> (
      match In_channel.with_open_bin path In_channel.input_all with
      | exception Sys_error msg -> Error msg
      | src ->
          Ok
            {
              Toolchain.prog_name = Filename.basename path;
              prog_main =
                (fun env ->
                  let engine = Mv_racket.Engine.start env in
                  Mv_racket.Engine.run_program engine src);
            })
  | None, None -> Error "pass --bench NAME or --file PROG.scm (or --list)"

let main bench file n mode porting sync_channel symbol_cache fault_seed fault_rate fault_sites
    fault_sweep jobs groups arrival offered_load admission topology partitions placement
    work_stealing no_huge_pages stats quiet list_benches =
  let sockets, cores_per_socket = topology in
  (* Scale mode keeps the load generator's own HRT sizing when no spec is
     given; program modes keep the reference machine's single HRT core. *)
  let default =
    if groups <> None then Mv_workloads.Loadgen.default_config.Mv_workloads.Loadgen.lg_machine
    else Machine.default_config
  in
  let machine =
    {
      Machine.sockets;
      cores_per_socket;
      partitions = Option.value partitions ~default:default.Machine.partitions;
      huge_pages = not no_huge_pages;
      work_stealing;
    }
  in
  let options =
    {
      Toolchain.mv_channel =
        (if sync_channel then Mv_hvm.Event_channel.Sync else Mv_hvm.Event_channel.Async);
      mv_symbol_cache = symbol_cache;
      mv_porting = porting;
      mv_faults = Fault_plan.none;
      mv_placement = placement;
    }
  in
  match Machine.check_config machine with
  | Error msg -> usage_error msg
  | Ok () ->
  if not (fault_rate >= 0. && fault_rate <= 1.) then
    usage_error (Printf.sprintf "--fault-rate must be in [0,1] (got %g)" fault_rate)
  else
  match fault_sweep with
  | Some sweep ->
      if fault_seed <> None then usage_error "--fault-sweep is incompatible with --fault-seed"
      else if groups <> None then usage_error "--fault-sweep is incompatible with --groups"
      else if mode <> Multiverse then usage_error "--fault-sweep requires --mode multiverse"
      else if sweep < 1 then usage_error "--fault-sweep must be at least 1"
      else if jobs < 1 then usage_error "--jobs must be at least 1"
      else (
        match Fault_plan.sites_of_string fault_sites with
        | Error msg -> usage_error msg
        | Ok sites -> (
            match prog_of ~bench ~file ~n with
            | Error msg -> usage_error msg
            | Ok prog ->
                with_guest_errors prog (fun () ->
                    run_fault_sweep ~machine ~options ~rate:fault_rate ~sites ~sweep ~jobs
                      prog)))
  | None ->
  if jobs <> 1 then usage_error "--jobs has no effect without --fault-sweep"
  else
  match
    match fault_seed with
    | Some seed -> (
        if mode <> Multiverse then Error "fault injection requires --mode multiverse"
        else
          try Ok (Fault_plan.create ~seed ~rate:fault_rate ~sites:(parse_fault_sites fault_sites) ())
          with Failure msg | Invalid_argument msg -> Error msg)
    | None ->
        if fault_rate <> 0.05 || fault_sites <> "all" then
          Error "--fault-rate/--fault-sites have no effect without --fault-seed"
        else Ok Fault_plan.none
  with
  | Error msg -> usage_error msg
  | Ok faults -> (
  match groups with
  | Some groups ->
      if bench <> None || file <> None then
        usage_error "--groups (scale mode) is incompatible with --bench/--file"
      else if Fault_plan.enabled faults then
        usage_error "fault injection is not supported in scale mode"
      else
        run_scale ~machine ~options ~groups ~arrival ~offered_load ~admission
  | None ->
  if arrival <> "poisson" || offered_load <> 100_000.0 || admission <> "off" then
    usage_error "--arrival/--offered-load/--admission have no effect without --groups"
  else if list_benches then begin
    List.iter
      (fun b ->
        Printf.printf "%-16s (test n=%d, bench n=%d)\n" b.Mv_workloads.Benchmarks.b_name
          b.Mv_workloads.Benchmarks.b_test_n b.Mv_workloads.Benchmarks.b_bench_n)
      Mv_workloads.Benchmarks.all;
    0
  end
  else
    match prog_of ~bench ~file ~n with
    | Error msg -> usage_error msg
    | Ok prog ->
        with_guest_errors prog (fun () ->
            run_one ~mode ~machine ~options:{ options with mv_faults = faults } ~stats
              ~quiet prog;
            0))

let () =
  let open Args in
  let term =
    const main
    $ opt_opt string ~names:[ "bench"; "b" ] ~docv:"NAME" ~doc:"Benchmark name."
    $ opt_opt string ~names:[ "file"; "f" ] ~docv:"FILE"
        ~doc:"Scheme source file to run through the Racket engine."
    $ opt_opt int ~names:[ "n" ] ~docv:"N" ~doc:"Problem size."
    $ opt
        (enum [ ("native", Native); ("virtual", Virtual); ("multiverse", Multiverse) ])
        ~default:Native ~names:[ "mode"; "m" ] ~docv:"MODE"
        ~doc:"native | virtual | multiverse."
    $ opt
        (enum
           [
             ("none", Runtime.no_porting);
             ("mmap", { Runtime.port_mmap = true; port_signals = false; port_faults = false });
             ("faults", { Runtime.port_mmap = true; port_signals = false; port_faults = true });
             ("full", Runtime.full_porting);
           ])
        ~default:Runtime.no_porting ~names:[ "porting" ] ~docv:"LEVEL"
        ~doc:"none | mmap | faults | full (multiverse only)."
    $ flag ~names:[ "sync-channel" ] ~doc:"Use synchronous (polling) event channels."
    $ flag ~names:[ "symbol-cache" ] ~doc:"Enable the override symbol cache."
    $ opt_opt int ~names:[ "fault-seed" ] ~docv:"SEED"
        ~doc:"Arm deterministic fault injection with this seed (multiverse only)."
    $ opt float ~default:0.05 ~names:[ "fault-rate" ] ~docv:"RATE"
        ~doc:"Per-site injection probability, 0.0-1.0 (with --fault-seed)."
    $ opt string ~default:"all" ~names:[ "fault-sites" ] ~docv:"SITES"
        ~doc:
          "Comma-separated fault sites to arm, or 'all': chan-drop, chan-delay, \
           chan-dup, chan-corrupt, partner-kill, boot-stall, syscall-eagain, \
           syscall-enosys."
    $ opt_opt int ~names:[ "fault-sweep" ] ~docv:"N"
        ~doc:
          "Run the program once per fault seed 1..N (multiverse only; uses \
           --fault-rate/--fault-sites) and report a per-seed resilience matrix. \
           Exits nonzero if any seed's run fails."
    $ opt int ~default:1 ~names:[ "jobs"; "j" ] ~docv:"M"
        ~doc:
          "Worker domains for --fault-sweep (default 1 = sequential). The \
           report is identical at any M."
    $ opt_opt int ~names:[ "groups"; "g" ] ~docv:"N"
        ~doc:
          "Scale mode: drive N execution groups (1-100000) with the open-loop \
           load generator instead of running a program."
    $ opt string ~default:"poisson" ~names:[ "arrival" ] ~docv:"PROC"
        ~doc:"poisson | bursty arrival process (with --groups)."
    $ opt float ~default:100_000.0 ~names:[ "offered-load" ] ~docv:"CPS"
        ~doc:"Total offered load in calls/second across all groups (with --groups)."
    $ opt string ~default:"off" ~names:[ "admission" ] ~docv:"POLICY"
        ~doc:"off | shed | block admission control (with --groups)."
    $ opt topology ~default:(2, 4) ~names:[ "topology" ] ~docv:"SxC"
        ~doc:
          "Machine geometry as SOCKETSxCORES_PER_SOCKET (default 2x4, the \
           reference box).  Geometries that cannot hold a ROS core are \
           rejected."
    $ opt_opt partitions ~names:[ "partitions" ] ~docv:"SPEC"
        ~doc:
          "Elastic partition spec as comma-separated core counts, one HRT \
           partition per entry carved from the top of the core range (e.g. \
           2,1 gives partition 1 two cores and partition 2 one).  Default \
           1 (one HRT core); scale mode defaults to the load generator's \
           sizing.  Must leave at least one ROS core."
    $ opt (enum placements) ~default:Fabric.Spread ~names:[ "placement" ]
        ~docv:"POLICY"
        ~doc:
          "Execution-group placement: spread (server cores spread over the \
           ROS partition, one poller pool) or affine (each group's server \
           core and poller group on its HRT core's socket)."
    $ flag ~names:[ "work-stealing" ]
        ~doc:
          "Enable deterministic work stealing across the ROS cores' \
           per-core runqueues."
    $ flag ~names:[ "no-huge-pages" ]
        ~doc:"Disable the huge-page memory path (4 KiB mappings only)."
    $ flag ~names:[ "stats" ] ~doc:"Print the per-syscall histogram."
    $ flag ~names:[ "quiet"; "q" ] ~doc:"Suppress the program's stdout."
    $ flag ~names:[ "list" ] ~doc:"List benchmarks."
  in
  exit
    (run ~name:"multiverse_run" ~doc:"Run workloads on the Multiverse simulation" term
       (List.tl (Array.to_list Sys.argv)))
