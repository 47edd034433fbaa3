(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (Section 5), plus the ablations called out in
   DESIGN.md, plus a Bechamel microbenchmark suite of the simulator's own
   hot paths.

   Each section measures once and returns one [Bench_report.t]; the
   harness prints it, and under --json writes it to BENCH_<section>.json.

   Run everything:       dune exec bench/main.exe
   Run one section:      dune exec bench/main.exe -- fig9 fig13
   Write the JSON too:   dune exec bench/main.exe -- fig2 fabric --json
   Parallel matrices:    dune exec bench/main.exe -- scale --jobs 4
   List sections:        dune exec bench/main.exe -- --list *)

module Cycles = Mv_util.Cycles
module Machine = Mv_engine.Machine
module Sim = Mv_engine.Sim
module Exec = Mv_engine.Exec
module Nautilus = Mv_aerokernel.Nautilus
module Hvm = Mv_hvm.Hvm
module Event_channel = Mv_hvm.Event_channel
module Fabric = Mv_hvm.Fabric
module Loadgen = Mv_workloads.Loadgen
open Multiverse
open Bench_report

let report ?(notes = []) title fields = { title; fields; notes }

(* a / b, or 0 when there is nothing to divide by. *)
let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* --jobs N: fan independent whole-machine measurement cells out over
   worker domains.  Every cell builds its own machine and returns a
   value; results merge in submission order, so every report is
   bit-identical at any job count. *)
let jobs = ref 1

let par_map f xs = Mv_host_par.Pool.run ~jobs:!jobs (List.map (fun x () -> f x) xs)

(* ------------------------------------------------------------------ *)
(* Figure 2: round-trip latencies of ROS<->HRT interactions            *)
(* ------------------------------------------------------------------ *)

(* One request/complete round trip over a channel, caller's clock. *)
let measure_channel_rtt ~kind ~ros_core ~hrt_core =
  let machine = Machine.create () in
  let ch = Event_channel.create machine ~kind ~ros_core ~hrt_core in
  ignore
    (Exec.spawn machine.Machine.exec ~cpu:ros_core ~name:"server" (fun () ->
         let req = Event_channel.serve_next ch in
         req.Event_channel.req_run ();
         Event_channel.complete ch));
  let rtt = ref 0 in
  ignore
    (Exec.spawn machine.Machine.exec ~cpu:hrt_core ~name:"caller" (fun () ->
         let t0 = Exec.local_now machine.Machine.exec in
         Event_channel.call ch { Event_channel.req_kind = "probe"; req_run = (fun () -> ()) };
         rtt := Exec.local_now machine.Machine.exec - t0));
  Sim.run machine.Machine.sim;
  !rtt

let measure_merger () =
  let machine = Machine.create () in
  let ros = Mv_ros.Kernel.create machine in
  let hvm = Hvm.create machine ~ros in
  let nk = Nautilus.create machine in
  let cost = ref 0 in
  ignore
    (Mv_ros.Kernel.spawn_process ros ~name:"merger" (fun p ->
         Hvm.install_hrt_image hvm ~image_kb:640 nk;
         Hvm.boot_hrt hvm;
         let t0 = Exec.local_now machine.Machine.exec in
         Hvm.merge_address_space hvm p;
         cost := Exec.local_now machine.Machine.exec - t0));
  Sim.run machine.Machine.sim;
  !cost

let fig2 () =
  let row item cycles paper =
    Obj [ ("item", Str item); ("cycles", Int cycles); ("paper_cycles", Int paper) ]
  in
  let rtt kind ros_core = measure_channel_rtt ~kind ~ros_core ~hrt_core:7 in
  report "Figure 2: round-trip latencies of ROS<->HRT interactions"
    ~notes:
      [ "(cycles: measured on the caller's clock, signalling included;\n\
        \ paper_cycles: the paper's Figure 2)" ]
    [
      ( "interactions",
        List
          [
            row "Address Space Merger" (measure_merger ()) 33_000;
            row "Asynchronous Call" (rtt Event_channel.Async 0) 25_000;
            row "Synchronous Call (different socket)" (rtt Event_channel.Sync 0) 1_060;
            row "Synchronous Call (same socket)" (rtt Event_channel.Sync 5) 790;
          ] );
    ]

(* ------------------------------------------------------------------ *)
(* Figure 8: source lines of code                                      *)
(* ------------------------------------------------------------------ *)

let repo_root () =
  let rec up dir =
    if Sys.file_exists (Filename.concat dir "dune-project") then Some dir
    else
      let parent = Filename.dirname dir in
      if parent = dir then None else up parent
  in
  up (Sys.getcwd ())

let file_lines path =
  let ic = open_in path in
  let n = ref 0 in
  (try
     while true do
       ignore (input_line ic);
       incr n
     done
   with End_of_file -> ());
  close_in ic;
  !n

let toolchain_files = [ "override_config"; "fat_binary"; "toolchain"; "symbols" ]

let count_lines ?(filter = fun _ -> true) dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then 0
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f ->
           (Filename.check_suffix f ".ml" || Filename.check_suffix f ".mli")
           && filter (Filename.remove_extension f))
    |> List.fold_left (fun acc f -> acc + file_lines (Filename.concat dir f)) 0

let fig8 () =
  let title = "Figure 8: source lines of code for Multiverse (and substrates)" in
  match repo_root () with
  | None -> report title [] ~notes:[ "cannot locate repository root; skipping" ]
  | Some root ->
      let row ?filter name dirs paper =
        let n =
          List.fold_left (fun acc dir -> acc + count_lines ?filter (Filename.concat root dir)) 0 dirs
        in
        Obj [ ("component", Str name); ("sloc", Int n); ("paper", Str paper) ]
      in
      let toolchain f = List.mem f toolchain_files in
      report title
        [
          ( "components",
            List
              [
                (* The paper's four components... *)
                row "Multiverse runtime" [ "lib/multiverse" ]
                  ~filter:(fun f -> not (toolchain f)) "2297";
                row "Multiverse toolchain" [ "lib/multiverse" ] ~filter:toolchain "130";
                row "Nautilus additions" [ "lib/aerokernel" ] "1670";
                row "HVM additions" [ "lib/hvm" ] "638";
                (* ...and the substrates the paper had and we built from scratch. *)
                row "ROS kernel (substrate)" [ "lib/ros" ] "(stock Linux)";
                row "Racket runtime (substrate)" [ "lib/racket" ] "(stock Racket)";
                row "Guest ABI + libc (substrate)" [ "lib/guest" ] "(glibc)";
                row "Machine + engine (substrate)" [ "lib/engine"; "lib/hw" ] "(hardware)";
                row "Workloads" [ "lib/workloads" ] "(benchmarks game)";
                row "Parallel runtime + HPCG (substrate)" [ "lib/parallel" ] "(Legion + HPCG)";
                row "NESL VCODE interpreter (substrate)" [ "lib/vcode" ] "(NESL)";
                row "Tests + bench + util" [ "test"; "bench"; "lib/util" ] "-";
              ] );
        ]

(* ------------------------------------------------------------------ *)
(* Figure 9: system-call latency, Virtual vs Multiverse                *)
(* ------------------------------------------------------------------ *)

let meg = 1024 * 1024

(* Each case: name, setup (untimed), op (timed). *)
let syscall_cases =
  let buf = Bytes.create meg in
  let blob = String.make meg 'x' in
  [
    ( "getpid",
      (fun (_ : Mv_guest.Env.t) (_ : Mv_guest.Libc.t) -> ()),
      fun env _libc -> ignore (env.Mv_guest.Env.getpid ()) );
    ( "gettimeofday",
      (fun _ _ -> ()),
      fun env _ -> ignore (env.Mv_guest.Env.gettimeofday ()) );
    ( "fwrite",
      (fun _ _ -> ()),
      fun _ libc ->
        (* 1 MB through stdio, as in the paper *)
        Mv_guest.Libc.fwrite libc (Mv_guest.Libc.stdout_stream libc) blob;
        Mv_guest.Libc.fflush libc (Mv_guest.Libc.stdout_stream libc) );
    ( "stat",
      (fun env _ ->
        match env.Mv_guest.Env.open_ ~path:"/tmp/target" ~flags:Mv_ros.Syscalls.[ O_WRONLY; O_CREAT ] with
        | Ok fd -> env.Mv_guest.Env.close ~fd
        | Error _ -> ()),
      fun env _ -> ignore (env.Mv_guest.Env.stat ~path:"/tmp/target") );
    ( "read",
      (fun env _ ->
        match env.Mv_guest.Env.open_ ~path:"/tmp/big" ~flags:Mv_ros.Syscalls.[ O_WRONLY; O_CREAT ] with
        | Ok fd ->
            ignore (env.Mv_guest.Env.write ~fd ~buf:(Bytes.of_string blob) ~off:0 ~len:meg);
            env.Mv_guest.Env.close ~fd
        | Error _ -> ()),
      fun env _ ->
        match env.Mv_guest.Env.open_ ~path:"/tmp/big" ~flags:[ Mv_ros.Syscalls.O_RDONLY ] with
        | Ok fd ->
            ignore (env.Mv_guest.Env.read ~fd ~buf ~off:0 ~len:meg);
            env.Mv_guest.Env.close ~fd
        | Error _ -> () );
    ( "getcwd",
      (fun _ _ -> ()),
      fun env _ -> ignore (env.Mv_guest.Env.getcwd ()) );
    ( "open",
      (fun env _ ->
        match env.Mv_guest.Env.open_ ~path:"/tmp/o" ~flags:Mv_ros.Syscalls.[ O_WRONLY; O_CREAT ] with
        | Ok fd -> env.Mv_guest.Env.close ~fd
        | Error _ -> ()),
      fun env _ ->
        match env.Mv_guest.Env.open_ ~path:"/tmp/o" ~flags:[ Mv_ros.Syscalls.O_RDONLY ] with
        | Ok _fd -> ()  (* fds intentionally leak; close is measured separately *)
        | Error _ -> () );
    ( "close",
      (fun env _ ->
        match env.Mv_guest.Env.open_ ~path:"/tmp/o" ~flags:Mv_ros.Syscalls.[ O_WRONLY; O_CREAT ] with
        | Ok fd -> env.Mv_guest.Env.close ~fd
        | Error _ -> ()),
      fun env _ ->
        (* open untimed-ish? we must pair: open then close; subtract via the
           open case when reading the results.  Here we measure open+close
           and report close = pair - open. *)
        match env.Mv_guest.Env.open_ ~path:"/tmp/o" ~flags:[ Mv_ros.Syscalls.O_RDONLY ] with
        | Ok fd -> env.Mv_guest.Env.close ~fd
        | Error _ -> () );
    ( "mmap",
      (fun _ _ -> ()),
      fun env _ ->
        ignore (env.Mv_guest.Env.mmap ~len:meg ~prot:Mv_ros.Mm.prot_rw ~kind:"bench") );
  ]

let iterations = 32

let measure_syscall ~multiverse (name, setup, op) =
  let per_call = ref 0.0 in
  let prog =
    {
      Toolchain.prog_name = "syscall-" ^ name;
      prog_main =
        (fun env ->
          let libc = Mv_guest.Libc.create env in
          setup env libc;
          op env libc (* warm (page in, populate caches) *);
          let t0 = env.Mv_guest.Env.gettimeofday () in
          for _ = 1 to iterations do
            op env libc
          done;
          let t1 = env.Mv_guest.Env.gettimeofday () in
          per_call := (t1 -. t0) /. float_of_int iterations);
    }
  in
  (if multiverse then ignore (Toolchain.run_multiverse (Toolchain.hybridize prog))
   else ignore (Toolchain.run_virtual prog));
  (* seconds -> cycles at 2.2 GHz *)
  !per_call *. 2.2e9

let fig9 () =
  (* One cell per syscall case (its Virtual and Multiverse runs).  The
     "read" case's shared scratch buffer is safe: it is the only case
     touching it, and a case's two runs stay within one cell. *)
  let results =
    par_map
      (fun case ->
        let name, _, _ = case in
        (name, measure_syscall ~multiverse:false case, measure_syscall ~multiverse:true case))
      syscall_cases
  in
  (* close was measured as an open+close pair: subtract the open cost. *)
  let _, ov, om = List.find (fun (name, _, _) -> name = "open") results in
  let row (name, v, m) =
    let v, m =
      if name = "close" then (Float.max 1. (v -. ov), Float.max 1. (m -. om)) else (v, m)
    in
    Obj
      [
        ("syscall", Str name);
        ("virtual_cycles", Int (Float.to_int (Float.round v)));
        ("multiverse_cycles", Int (Float.to_int (Float.round m)));
        ("m_over_v", Float (m /. v, 2));
      ]
  in
  report "Figure 9: system-call latency (cycles), Virtual vs Multiverse"
    ~notes:
      [ "(expect the two vdso calls to be slightly FASTER under Multiverse and\n\
        \ everything else to pay ~an async channel round trip per forwarded call)" ]
    [ ("syscalls", List (List.map row results)) ]

(* ------------------------------------------------------------------ *)
(* Figures 10-13: the Racket benchmarks                                *)
(* ------------------------------------------------------------------ *)

let all_benchmarks = Mv_workloads.Benchmarks.all

let run_bench ~mode b =
  let n = b.Mv_workloads.Benchmarks.b_bench_n in
  let prog = Mv_workloads.Benchmarks.program b ~n in
  match mode with
  | `Native -> Toolchain.run_native prog
  | `Virtual -> Toolchain.run_virtual prog
  | `Multiverse -> Toolchain.run_multiverse (Toolchain.hybridize prog)

let fig10 () =
  let row b =
    let rs = run_bench ~mode:`Native b in
    let ru = rs.Toolchain.rs_rusage in
    let open Mv_ros.Rusage in
    Obj
      [
        ("benchmark", Str b.Mv_workloads.Benchmarks.b_name);
        ("n", Int b.Mv_workloads.Benchmarks.b_bench_n);
        ("syscalls", Int (Toolchain.total_syscalls rs));
        ("user_cycles", Int ru.utime);
        ("sys_cycles", Int ru.stime);
        ("max_resident_kb", Int ru.maxrss_kb);
        ("page_faults", Int (ru.minflt + ru.majflt));
        ("context_switches", Int (ru.nvcsw + ru.nivcsw));
        ("tlb_hit_rate", Float (tlb_hit_rate ru, 4));
      ]
  in
  report "Figure 10: system utilization of the Racket benchmarks (native)"
    [ ("benchmarks", List (par_map row all_benchmarks)) ]

let engine_startup_program =
  {
    Toolchain.prog_name = "racket-startup";
    prog_main =
      (fun env ->
        let engine = Mv_racket.Engine.start env in
        Mv_racket.Engine.finish engine);
  }

(* A run's syscall histogram, most frequent first. *)
let syscall_profile rs =
  [
    ( "syscalls",
      List
        (List.map
           (fun (name, n) -> Obj [ ("syscall", Str name); ("count", Int n) ])
           (Mv_util.Histogram.to_sorted_list rs.Toolchain.rs_syscalls)) );
    ("total", Int (Toolchain.total_syscalls rs));
  ]

let fig11 () =
  report "Figure 11: syscalls of the Racket runtime with no benchmark (startup)"
    (syscall_profile (Toolchain.run_native engine_startup_program))

let fig12 () =
  let b = Mv_workloads.Benchmarks.find "binary-tree-2" in
  report "Figure 12: syscalls of a binary-tree-2 run"
    (("n", Int b.Mv_workloads.Benchmarks.b_bench_n) :: syscall_profile (run_bench ~mode:`Native b))

let fig13 () =
  (* One cell per benchmark (its three mode runs). *)
  let row b =
    let rs_n = run_bench ~mode:`Native b in
    let rs_v = run_bench ~mode:`Virtual b in
    let rs_m = run_bench ~mode:`Multiverse b in
    let n = rs_n.Toolchain.rs_wall_cycles and m = rs_m.Toolchain.rs_wall_cycles in
    (* ABI interactions = syscalls + page faults of the native run. *)
    let interactions =
      Toolchain.total_syscalls rs_n + rs_n.Toolchain.rs_rusage.Mv_ros.Rusage.minflt
    in
    Obj
      [
        ("benchmark", Str b.Mv_workloads.Benchmarks.b_name);
        ("native_cycles", Int n);
        ("virtual_cycles", Int rs_v.Toolchain.rs_wall_cycles);
        ("multiverse_cycles", Int m);
        ("m_over_n", Float (ratio m n, 2));
        ("interactions", Int interactions);
        ("interactions_per_s", Float (float_of_int interactions /. Cycles.to_sec n, 0));
      ]
  in
  report "Figure 13: benchmark runtime, Native vs Virtual vs Multiverse"
    ~notes:
      [ "(Multiverse is the unoptimized automatic hybridization; interactions\n\
        \ counts the native run's syscalls and page faults, interactions_per_s\n\
        \ per native second)" ]
    [ ("benchmarks", List (par_map row all_benchmarks)) ]

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let override_heavy_program nthreads =
  {
    Toolchain.prog_name = "override-heavy";
    prog_main =
      (fun env ->
        (* Waves of pthread_create/join: each one runs the override wrapper
           and its symbol lookup. *)
        for _ = 1 to 8 do
          let hs =
            List.init nthreads (fun i ->
                env.Mv_guest.Env.thread_create ~name:(Printf.sprintf "w%d" i) (fun () ->
                    env.Mv_guest.Env.work 5_000))
          in
          List.iter (fun h -> env.Mv_guest.Env.thread_join h) hs
        done);
  }

let ablation_symcache () =
  let hx = Toolchain.hybridize (override_heavy_program 8) in
  let run cache =
    let options = { Toolchain.default_mv_options with mv_symbol_cache = cache } in
    let rs = Toolchain.run_multiverse ~options hx in
    let rt = Option.get rs.Toolchain.rs_runtime in
    (rs.Toolchain.rs_wall_cycles, Symbols.lookups (Runtime.symbols rt),
     Symbols.cache_hits (Runtime.symbols rt))
  in
  let w_off, l_off, h_off = run false in
  let w_on, l_on, h_on = run true in
  let row config w l h =
    Obj [ ("config", Str config); ("wall_cycles", Int w); ("lookups", Int l); ("cache_hits", Int h) ]
  in
  report "Ablation A1: override symbol cache (paper Section 4.2)"
    [
      ( "configs",
        List
          [ row "per-call lookup (paper)" w_off l_off h_off; row "with symbol cache" w_on l_on h_on ]
      );
      ("saved_cycles", Int (w_off - w_on));
      ("saved_pct", Float (100.0 *. ratio (w_off - w_on) w_off, 2));
    ]

(* binary-tree-2 at n = 10, the program of ablations A2 and A3. *)
let ablation_n = 10

let ablation_program () =
  Mv_workloads.Benchmarks.program (Mv_workloads.Benchmarks.find "binary-tree-2") ~n:ablation_n

let ablation_channel () =
  let hx = Toolchain.hybridize (ablation_program ()) in
  let run kind =
    let options = { Toolchain.default_mv_options with mv_channel = kind } in
    (Toolchain.run_multiverse ~options hx).Toolchain.rs_wall_cycles
  in
  let w_async = run Event_channel.Async in
  let w_sync = run Event_channel.Sync in
  let row channel w =
    Obj [ ("channel", Str channel); ("wall_cycles", Int w); ("vs_async", Float (ratio w w_async, 2)) ]
  in
  report "Ablation A2: async vs sync event channels for forwarding"
    [
      ("workload", Str "binary-tree-2");
      ("n", Int ablation_n);
      ( "channels",
        List
          [ row "async (hypercall+interrupt)" w_async; row "sync (shared-memory polling)" w_sync ] );
    ]

let ablation_porting () =
  let prog = ablation_program () in
  let hx = Toolchain.hybridize prog in
  let native = (Toolchain.run_native prog).Toolchain.rs_wall_cycles in
  let row name porting =
    let options = { Toolchain.default_mv_options with mv_porting = porting } in
    let rs = Toolchain.run_multiverse ~options hx in
    let w = rs.Toolchain.rs_wall_cycles in
    Obj
      [
        ("ported", Str name);
        ("wall_cycles", Int w);
        ("vs_native", Float (ratio w native, 2));
        ("local_faults", Int (Runtime.faults_serviced_locally (Option.get rs.Toolchain.rs_runtime)));
      ]
  in
  let mmap = { Runtime.port_mmap = true; port_signals = false; port_faults = false } in
  let paths =
    [
      row "none (automatic hybridization)" Runtime.no_porting;
      row "+ mmap/munmap/mprotect overrides" mmap;
      row "+ local fault handling" { mmap with port_faults = true };
      row "+ local signal delivery (full)" Runtime.full_porting;
    ]
  in
  report "Ablation A3: the incremental (subtractive) porting path"
    [
      ("workload", Str "binary-tree-2");
      ("n", Int ablation_n);
      ("native_wall_cycles", Int native);
      ("paths", List paths);
    ]

let ablation_wp () =
  (* An HRT thread writes a read-only page.  With WP set the fault is
     caught and forwarded; with WP clear the write silently corrupts. *)
  let row name ~wp =
    let machine = Machine.create () in
    let nk = Nautilus.create machine in
    let ros_pt = Mv_hw.Page_table.create () in
    Mv_hw.Page_table.map ros_pt 0x1000 ~frame:1
      ~flags:Mv_hw.Page_table.(f_present lor f_user) (* read-only, e.g. zero page *);
    let forwarded = ref 0 in
    Nautilus.set_services nk
      {
        Nautilus.svc_forward_fault =
          (fun addr ~write:_ ->
            incr forwarded;
            (* The ROS breaks COW with a writable private copy. *)
            Mv_hw.Page_table.map ros_pt (Mv_hw.Addr.align_down addr) ~frame:99
              ~flags:Mv_hw.Page_table.(f_present lor f_writable lor f_user);
            Nautilus.Fault_fixed);
        svc_forward_syscall = (fun _ run -> run ());
        svc_request_remerge = (fun () -> ros_pt);
      };
    ignore
      (Exec.spawn machine.Machine.exec ~cpu:7 ~name:"hrt" (fun () ->
           Nautilus.boot nk;
           Nautilus.set_wp nk wp;
           Nautilus.merge_lower_half nk ~from:ros_pt;
           Nautilus.access nk 0x1000 ~write:true));
    Sim.run machine.Machine.sim;
    Obj
      [
        ("cr0_wp", Str name);
        ("faults_forwarded", Int !forwarded);
        ("silent_corruptions", Int (Nautilus.stats_silent_writes nk));
      ]
  in
  report "Ablation A4: CR0.WP in kernel mode (paper Section 4.4)"
    ~notes:
      [ "(with WP clear the COW write proceeds against the shared page —\n\
        \ the paper's \"mysterious memory corruption\")" ]
    [
      ( "cases",
        List [ row "set (Nautilus default)" ~wp:true; row "clear (x86 ring-0 default)" ~wp:false ]
      );
    ]

(* ------------------------------------------------------------------ *)
(* Bonus: the Native usage model (Section 2's HPCG claim)              *)
(* ------------------------------------------------------------------ *)

let native_model_workers = 4

(* Time [work pool ~charge] on a 4-worker pool: under Linux on a ROS
   process, or on the AeroKernel of a 5-core HRT partition. *)
let on_linux ~name work =
  let machine = Machine.create () in
  let kernel = Mv_ros.Kernel.create machine in
  let out = ref None in
  ignore
    (Mv_ros.Kernel.spawn_process kernel ~name (fun p ->
         let env = Mv_guest.Env.native kernel p in
         let pool =
           Mv_parallel.Pool.create (Mv_parallel.Pool.Linux env) ~nworkers:native_model_workers
         in
         let t0 = Exec.local_now machine.Machine.exec in
         let r = work pool ~charge:(fun c -> env.Mv_guest.Env.work c) in
         let t = Exec.local_now machine.Machine.exec - t0 in
         Mv_parallel.Pool.shutdown pool;
         out := Some (r, t)));
  Sim.run machine.Machine.sim;
  Option.get !out

let on_hrt ~name work =
  let machine =
    Machine.create
      ~config:{ Machine.default_config with partitions = [ native_model_workers + 1 ] }
      ()
  in
  let nk = Nautilus.create machine in
  let out = ref None in
  let master = List.hd (Mv_aerokernel.Nautilus.cores nk) in
  ignore
    (Exec.spawn machine.Machine.exec ~cpu:master ~name (fun () ->
         Nautilus.boot nk;
         let pool =
           Mv_parallel.Pool.create (Mv_parallel.Pool.Aerokernel nk) ~nworkers:native_model_workers
         in
         let t0 = Exec.local_now machine.Machine.exec in
         let r = work pool ~charge:(fun c -> Machine.charge machine c) in
         let t = Exec.local_now machine.Machine.exec - t0 in
         Mv_parallel.Pool.shutdown pool;
         out := Some (r, t)));
  Sim.run machine.Machine.sim;
  Option.get !out

let native_model () =
  let hpcg nx =
    let work pool ~charge:_ = Mv_parallel.Hpcg.run pool ~nx () in
    let rl, tl = on_linux ~name:"hpcg" work in
    let rn, tn = on_hrt ~name:"hpcg-master" work in
    Obj
      [
        ("nx", Int nx);
        ("regions", Int rl.Mv_parallel.Hpcg.regions);
        ("linux_cycles", Int tl);
        ("hrt_cycles", Int tn);
        ("hrt_speedup", Float (ratio tl tn, 2));
        ( "converged",
          Str (Printf.sprintf "%b/%b" (Mv_parallel.Hpcg.verify rl) (Mv_parallel.Hpcg.verify rn)) );
      ]
  in
  (* The same comparison for the authors' other ported runtime: the NESL
     VCODE interpreter, every vector op a parallel region. *)
  let vcode n =
    let work pool ~charge =
      let interp = Mv_vcode.Vcode.create ~pool ~charge () in
      ignore
        (Mv_vcode.Vcode.run interp (Mv_vcode.Vcode.parse (Mv_vcode.Samples.sum_of_squares n)) [])
    in
    let (), tl = on_linux ~name:"vcode" work in
    let (), tn = on_hrt ~name:"vcode-hrt" work in
    Obj
      [
        ("vector_length", Int n);
        ("linux_cycles", Int tl);
        ("hrt_cycles", Int tn);
        ("hrt_speedup", Float (ratio tl tn, 2));
      ]
  in
  report "Bonus: Native model — HPCG on Linux pthreads vs AeroKernel threads"
    ~notes:
      [
        "(reproduces the Section-2 claim behind Multiverse: hand-ported HRT\n\
        \ runtimes sped HPCG up by up to 20%/40% because AeroKernel thread\n\
        \ primitives are orders of magnitude cheaper than Linux's)";
        "(the advantage is largest where parallel regions are fine-grained and\n\
        \ shrinks as per-region compute amortizes the synchronization cost)";
      ]
    [
      ("workers", Int native_model_workers);
      ("hpcg", List (List.map hpcg [ 8; 12; 16; 24; 32 ]));
      ("vcode", List (List.map vcode [ 1_000; 10_000; 100_000 ]));
    ]

(* ------------------------------------------------------------------ *)
(* The forwarding fabric: batching, routing and local fast paths       *)
(* ------------------------------------------------------------------ *)

(* Four concurrent execution groups, each with concurrent nested callers
   hammering the group's endpoint: the configuration the batching layer is
   for. *)
let fabric_bench () =
  let groups = 4 and riders = 4 and calls = 8 in
  let run () =
    let elapsed = ref 0 in
    let counters = ref None in
    ignore
      (Toolchain.run_accelerator ~name:"fabric-bench" (fun ~ros_env:_ ~rt ->
           let fabric = Runtime.fabric rt in
           let exec = (Nautilus.machine (Runtime.nk rt)).Machine.exec in
           let t0 = Exec.local_now exec in
           let partners =
             List.init groups (fun g ->
                 Runtime.hrt_invoke rt ~name:(Printf.sprintf "grp-%d" g) (fun env ->
                     let nested =
                       List.init riders (fun i ->
                           Runtime.create_nested rt
                             ~name:(Printf.sprintf "g%d-rider-%d" g i)
                             (fun () ->
                               for _ = 1 to calls do
                                 ignore (env.Mv_guest.Env.getrusage ());
                                 ignore (env.Mv_guest.Env.getpid ())
                               done))
                     in
                     List.iter (fun th -> Runtime.join_nested rt th) nested))
           in
           List.iter (fun p -> Runtime.join rt p) partners;
           elapsed := Exec.local_now exec - t0;
           counters :=
             Some
               ( Fabric.calls fabric, Fabric.transport_calls fabric,
                 Fabric.riders fabric, Fabric.drains fabric, Fabric.drained fabric,
                 Fabric.local_hits fabric, Fabric.local_misses fabric )));
    (!elapsed, Option.get !counters)
  in
  (* The timed run and the three RTT probes are four independent machines;
     fan them out. *)
  let cells =
    [
      (fun () -> `Timed (run ()));
      (fun () -> `Rtt (measure_channel_rtt ~kind:Event_channel.Async ~ros_core:0 ~hrt_core:7));
      (fun () -> `Rtt (measure_channel_rtt ~kind:Event_channel.Sync ~ros_core:0 ~hrt_core:7));
      (fun () -> `Rtt (measure_channel_rtt ~kind:Event_channel.Sync ~ros_core:5 ~hrt_core:7));
    ]
  in
  match par_map (fun f -> f ()) cells with
  | [ `Timed (batched_cycles, (fcalls, doorbells, nriders, drains, drained, hits, misses));
      `Rtt async; `Rtt sync_cross; `Rtt sync_same ] ->
      let forwarded = groups * riders * calls in
      report "Fabric: batched forwarding (4 concurrent groups)"
        [
          ( "rtt_cycles",
            Obj
              [
                ("async", Int async);
                ("sync_cross_socket", Int sync_cross);
                ("sync_same_socket", Int sync_same);
              ] );
          ( "forwarded_calls_per_sec",
            Float (float_of_int forwarded /. Cycles.to_sec batched_cycles, 1) );
          ( "batch",
            Obj
              [
                ("groups", Int groups);
                ("riders_per_group", Int riders);
                ("calls_per_rider", Int calls);
                ("forwarded_calls", Int forwarded);
                ("batched_cycles_per_call", Float (ratio batched_cycles forwarded, 1));
                ("doorbells_batched", Int doorbells);
                ("riders", Int nriders);
                ("drains", Int drains);
                ("drained", Int drained);
                ("occupancy", Float (ratio drained drains, 3));
              ] );
          ( "local_fast_path",
            Obj
              [
                ("hits", Int hits);
                ("misses", Int misses);
                ("hit_rate", Float (ratio hits fcalls, 3));
              ] );
        ]
  | _ -> assert false

(* ------------------------------------------------------------------ *)
(* The memory path: huge pages, size-aware TLB, walk cache, shootdowns *)
(* ------------------------------------------------------------------ *)

let mempath_n = 11

(* One side of the A/B: binary-tree-2 (the GC-heavy workload) under
   Multiverse with the huge-page memory path on or off.  Everything here
   comes from the rusage memory-path counters plus the collector's own
   statistics.  Returns the memory-path cycles and the side's report. *)
let measure_mempath_side ~huge_pages =
  let b = Mv_workloads.Benchmarks.find "binary-tree-2" in
  let collections = ref 0 in
  let prog =
    {
      Toolchain.prog_name = "mempath-binary-tree-2";
      prog_main =
        (fun env ->
          let engine = Mv_racket.Engine.start env in
          Mv_racket.Engine.run_program engine (b.Mv_workloads.Benchmarks.b_source mempath_n);
          collections :=
            (Mv_racket.Sgc.stats (Mv_racket.Engine.gc engine)).Mv_racket.Sgc.collections);
    }
  in
  let machine = { Machine.default_config with huge_pages } in
  let rs = Toolchain.run_multiverse ~machine (Toolchain.hybridize prog) in
  let ru = rs.Toolchain.rs_rusage in
  let open Mv_ros.Rusage in
  let mem_cycles = ru.walk_cycles + ru.fill_cycles + ru.shootdown_cycles in
  ( mem_cycles,
    Obj
      [
        ("wall_cycles", Int rs.Toolchain.rs_wall_cycles);
        ("gc_collections", Int !collections);
        ("tlb_hit_rate", Float (tlb_hit_rate ru, 4));
        ("walks", Int ru.walks);
        ("levels_per_walk", Float (ratio ru.walk_levels ru.walks, 3));
        ("walk_cycles", Int ru.walk_cycles);
        ("fill_cycles", Int ru.fill_cycles);
        ("shootdowns", Int ru.shootdowns);
        ("shootdown_cycles", Int ru.shootdown_cycles);
        ("memory_path_cycles", Int mem_cycles);
        ("memory_path_cycles_per_gc", Float (ratio mem_cycles !collections, 1));
        ("huge_promotions", Int ru.huge_promotions);
        ("huge_splits", Int ru.huge_splits);
        ("page_faults", Int ru.minflt);
      ] )

(* The higher half: sweep-read the AeroKernel identity map on the HRT core.
   With 1 GiB leaves the whole span fits the 1G TLB class and there is
   nothing to demand-fill; with 4 KiB pages every 64 KiB stride is a fresh
   page.  The warmup sweep populates the mappings, [Tlb.reset_stats] (and
   the walk-cache counterpart) zeroes the counters, and the measured sweep
   reports steady state. *)
let measure_hh_sweep ~huge_pages =
  let machine = Machine.create ~config:{ Machine.default_config with huge_pages } () in
  let nk = Nautilus.create machine in
  let hrt = List.hd (Mv_aerokernel.Nautilus.cores nk) in
  let out = ref None in
  ignore
    (Exec.spawn machine.Machine.exec ~cpu:hrt ~name:"hh-sweep" (fun () ->
         Nautilus.boot nk;
         let phys = machine.Machine.phys in
         let span_pages =
           Mv_hw.Phys_mem.total phys Mv_hw.Phys_mem.Ros_region
           + Mv_hw.Phys_mem.total phys Mv_hw.Phys_mem.Hrt_region
         in
         let stride = 16 (* pages: one access per 64 KiB *) in
         let sweep () =
           let n = ref 0 and p = ref 0 in
           while !p < span_pages do
             Nautilus.access nk
               (Mv_hw.Addr.higher_half_base + (!p * Mv_hw.Addr.page_size))
               ~write:false;
             incr n;
             p := !p + stride
           done;
           !n
         in
         ignore (sweep ());
         let cpu = machine.Machine.cpus.(hrt) in
         Mv_hw.Tlb.reset_stats cpu.Mv_hw.Cpu.tlb;
         Mv_hw.Walk_cache.reset_stats cpu.Mv_hw.Cpu.pwc;
         let fills0 = Nautilus.stats_hh_fills nk in
         let accesses = sweep () in
         let tlb = cpu.Mv_hw.Cpu.tlb in
         let hits = Mv_hw.Tlb.hits tlb and misses = Mv_hw.Tlb.misses tlb in
         out :=
           Some
             (Obj
                [
                  ("accesses", Int accesses);
                  ("demand_fills", Int (Nautilus.stats_hh_fills nk - fills0));
                  ( "tlb_hit_rate",
                    Float
                      ( (if hits + misses = 0 then 1.0
                         else float_of_int hits /. float_of_int (hits + misses)),
                        4 ) );
                ])));
  Sim.run machine.Machine.sim;
  Option.get !out

let mempath () =
  (* The two workload sides and the two higher-half sweeps are four
     independent machines. *)
  match
    par_map
      (fun f -> f ())
      [
        (fun () -> `Side (measure_mempath_side ~huge_pages:true));
        (fun () -> `Side (measure_mempath_side ~huge_pages:false));
        (fun () -> `Hh (measure_hh_sweep ~huge_pages:true));
        (fun () -> `Hh (measure_hh_sweep ~huge_pages:false));
      ]
  with
  | [ `Side (c_on, on); `Side (c_off, off); `Hh hh_on; `Hh hh_off ] ->
      let c_on = float_of_int c_on and c_off = float_of_int c_off in
      let reduction = if c_off = 0.0 then 0.0 else 100.0 *. (c_off -. c_on) /. c_off in
      report "Memory path: huge pages on vs off (binary-tree-2, Multiverse)"
        ~notes:
          [ "(acceptance: memory_path_reduction_pct >= 30; with huge pages on the\n\
            \ higher-half sweep is fault-free with >= 99% hits after warmup)" ]
        [
          ("workload", Str "binary-tree-2");
          ("n", Int mempath_n);
          ("huge_on", on);
          ("huge_off", off);
          ("memory_path_reduction_pct", Float (reduction, 2));
          ("higher_half", Obj [ ("huge_on", hh_on); ("huge_off", hh_off) ]);
        ]
  | _ -> assert false

(* ------------------------------------------------------------------ *)
(* Scale: open-loop load at 1k execution groups, admission on vs off   *)
(* ------------------------------------------------------------------ *)

(* Token rate = each group's fair share of the pool's service capacity
   (~4 pollers x 2.2e9 / ~21k cycles ~= 420k calls/s over 1000 groups
   ~= 1.9e-7 tokens/cycle): below the knee the bucket is invisible, past
   it the surplus is shed at admission instead of queueing. *)
let scale_admission () =
  Fabric.make_admission ~policy:Fabric.Shed ~ring_capacity:8 ~queue_capacity:16
    ~rate:1.9e-7 ~burst:4 ()

(* The open-loop workload of the scale sweep (and of host's scale cell). *)
let scale_config =
  {
    Loadgen.default_config with
    Loadgen.lg_groups = 1000;
    lg_calls_per_group = 16;
    lg_workers_per_group = 16;
    lg_arrival = Loadgen.Poisson;
  }

let scale_offered = [ 50_000.0; 100_000.0; 200_000.0; 400_000.0; 800_000.0; 1_600_000.0 ]

(* Each sweep point runs the identical open-loop workload with admission
   control off (unbounded queueing) and on (bounded rings + token-bucket
   admission, Shed policy).  The offered loads straddle the pool's
   service capacity so the curve shows the knee. *)
let scale_bench () =
  (* offered x {off,on}: every cell is an independent load-generator run,
     so the whole matrix fans out. *)
  let results =
    par_map
      (fun (cps, admit) ->
        let cfg = { scale_config with Loadgen.lg_offered_cps = cps } in
        Loadgen.run
          (if admit then { cfg with lg_admission = Some (scale_admission ()) } else cfg))
      (List.concat_map (fun cps -> [ (cps, false); (cps, true) ]) scale_offered)
  in
  let side (r : Loadgen.results) =
    Obj
      [
        ("issued", Int r.Loadgen.r_issued);
        ("completed", Int r.Loadgen.r_completed);
        ("dropped", Int r.Loadgen.r_dropped);
        ("throughput_cps", Float (r.Loadgen.r_throughput_cps, 1));
        ("p50_us", Float (r.Loadgen.r_p50_us, 1));
        ("p95_us", Float (r.Loadgen.r_p95_us, 1));
        ("p99_us", Float (r.Loadgen.r_p99_us, 1));
        ("ring_occupancy_hw", Int r.Loadgen.r_ring_hw);
        ("sheds", Int r.Loadgen.r_sheds);
        ("shed_retries", Int r.Loadgen.r_shed_retries);
        ("blocked", Int r.Loadgen.r_blocked);
        ("shed_flips", Int r.Loadgen.r_shed_flips);
        ("shed_restores", Int r.Loadgen.r_shed_restores);
      ]
  in
  let rec curve offered results =
    match (offered, results) with
    | cps :: offered, off :: on :: results ->
        Obj [ ("offered_cps", Float (cps, 0)); ("control_off", side off); ("control_on", side on) ]
        :: curve offered results
    | _ -> []
  in
  let ad = scale_admission () in
  report
    (Printf.sprintf "Scale: open-loop load, %d execution groups, shedding on vs off"
       scale_config.Loadgen.lg_groups)
    ~notes:
      [ "(acceptance: past the knee, shed-mode p99 stays bounded while\n\
        \ control-off p99 collapses; shed-mode throughput is never retrograde)" ]
    [
      ("groups", Int scale_config.Loadgen.lg_groups);
      ("calls_per_group", Int scale_config.Loadgen.lg_calls_per_group);
      ("arrival", Str "poisson");
      ("service_cycles", Int Loadgen.default_config.Loadgen.lg_service_cycles);
      ( "admission",
        Obj
          [
            ("policy", Str "shed");
            ("ring_capacity", Int ad.Fabric.ad_ring_capacity);
            ("queue_capacity", Int ad.Fabric.ad_queue_capacity);
            ("rate_tokens_per_cycle", Float (ad.Fabric.ad_rate, 7));
            ("burst", Int ad.Fabric.ad_burst);
            ("shed_retries", Int ad.Fabric.ad_shed_retries);
          ] );
      ("curve", List (curve scale_offered results));
    ]

(* ------------------------------------------------------------------ *)
(* NUMA: group-affine vs spread placement on a big box                *)
(* ------------------------------------------------------------------ *)

(* The NUMA section's machine (override its geometry with --topology
   SxC).  The default is the 4x32 box with HRT pinned to the upper half of
   the last socket: affine placement can then co-locate a group's server
   core, poller group and frames on one socket, while spread placement
   scatters the server cores across all four. *)
let numa_machine_of (sockets, cores_per_socket) =
  let hrt = min 16 (max 1 (sockets * cores_per_socket / 2)) in
  { Machine.default_config with sockets; cores_per_socket; partitions = [ hrt ] }

let numa_machine = ref (numa_machine_of (4, 32))
let numa_groups = 400

let numa_loadgen placement =
  Loadgen.run
    {
      Loadgen.default_config with
      Loadgen.lg_groups = numa_groups;
      lg_machine = !numa_machine;
      lg_placement = placement;
    }

let numa_frames_per_core = 64
let numa_accesses_per_frame = 32

(* The demand-paging side, measured directly against the sharded
   allocator: a spread of faulting ROS cores builds a working set either
   from the flat first-fit order (zone 0 first — every remote socket
   pays the distance) or NUMA-locally via [alloc_near], then each access
   is priced with the machine's remote-hop surcharge
   ([Machine.mem_access_cost], 0 for a local frame).  Returns the
   surcharge cycles and the side's report. *)
let measure_numa_mem ~local =
  let machine = Machine.create ~config:!numa_machine () in
  let topo = machine.Machine.topo in
  let phys = machine.Machine.phys in
  let cores =
    List.filteri (fun i _ -> i mod 8 = 0) (Mv_hw.Topology.ros_cores topo)
  in
  let frames = ref 0 and remote = ref 0 and cycles = ref 0 in
  List.iter
    (fun core ->
      for _ = 1 to numa_frames_per_core do
        let f =
          if local then Mv_hw.Phys_mem.alloc_near phys ~core Mv_hw.Phys_mem.Ros_region
          else Mv_hw.Phys_mem.alloc phys Mv_hw.Phys_mem.Ros_region
        in
        incr frames;
        if Mv_hw.Phys_mem.zone_of_frame phys f <> Mv_hw.Topology.socket_of topo core
        then incr remote;
        cycles :=
          !cycles
          + (numa_accesses_per_frame * Machine.mem_access_cost machine ~core ~frame:f)
      done)
    cores;
  ( !cycles,
    Obj
      [
        ("frames", Int !frames);
        ("remote_frames", Int !remote);
        ("remote_access_cycles", Int !cycles);
      ] )

let numa_bench () =
  let m = !numa_machine in
  (* Four independent whole-machine cells: the matrix fans out under --jobs. *)
  match
    par_map
      (fun f -> f ())
      [
        (fun () -> `Lg (numa_loadgen Fabric.Spread));
        (fun () -> `Lg (numa_loadgen Fabric.Affine));
        (fun () -> `Mem (measure_numa_mem ~local:false));
        (fun () -> `Mem (measure_numa_mem ~local:true));
      ]
  with
  | [ `Lg spread; `Lg aff; `Mem (c_flat, flat); `Mem (c_near, near) ] ->
      let side (r : Loadgen.results) =
        Obj
          [
            ("issued", Int r.Loadgen.r_issued);
            ("completed", Int r.Loadgen.r_completed);
            ("throughput_cps", Float (r.Loadgen.r_throughput_cps, 1));
            ("p50_us", Float (r.Loadgen.r_p50_us, 1));
            ("p95_us", Float (r.Loadgen.r_p95_us, 1));
            ("p99_us", Float (r.Loadgen.r_p99_us, 1));
            ("p50_cycles", Int (Cycles.of_us r.Loadgen.r_p50_us));
          ]
      in
      let hrt = List.hd m.partitions in
      report
        (Printf.sprintf "NUMA: group-affine vs spread placement (%dx%d cores, %d hrt)"
           m.sockets m.cores_per_socket hrt)
        ~notes:
          [ "(fabric.p50_sojourn_delta_cycles: spread minus affine p50 sojourn\n\
            \ of the fabric calls; memory_path.delta_cycles: flat first-fit minus\n\
            \ NUMA-local remote-access cycles)" ]
        [
          ("topology", Str (Printf.sprintf "%dx%d" m.sockets m.cores_per_socket));
          ("hrt_cores", Int hrt);
          ("groups", Int numa_groups);
          ( "fabric",
            Obj
              [
                ("spread", side spread);
                ("affine", side aff);
                ( "p50_sojourn_delta_cycles",
                  Int (Cycles.of_us (spread.Loadgen.r_p50_us -. aff.Loadgen.r_p50_us)) );
              ] );
          ( "memory_path",
            Obj [ ("flat", flat); ("local", near); ("delta_cycles", Int (c_flat - c_near)) ] );
        ]
  | _ -> assert false

(* ------------------------------------------------------------------ *)
(* Partition: 2-tenant consolidation with dynamic core lending         *)
(* ------------------------------------------------------------------ *)

(* Two HRT tenants on the reference box ([--partitions], default [2;2]):
   tenant A runs a steady open-loop stream sized to overload its own
   cores; tenant B runs short periodic bursts and is otherwise idle.
   With lending ON, tenant B lends its last core to A for every idle gap
   and reclaims it just before the next burst; with lending OFF the core
   idles.  Both tenants' sojourn percentiles are reported on both
   sides. *)

let partition_machine = ref { Machine.default_config with partitions = [ 2; 2 ] }

let part_jobs_a = 360
let part_inter_a = 3_750 (* cycles between tenant-A arrivals *)
let part_svc_a = 9_000 (* per-job service; 2.4 cores of demand on 2 cores *)
let part_bursts_b = 5
let part_period_b = 300_000 (* tenant-B burst period *)
let part_burst_jobs_b = 8
let part_inter_b = 2_000
let part_svc_b = 6_000
let part_settle_b = 40_000 (* burst start -> lend of the idle core *)

let measure_partition ~lending =
  let machine = Machine.create ~config:!partition_machine () in
  let exec = machine.Machine.exec in
  let topo = machine.Machine.topo in
  let kernel = Mv_ros.Kernel.create machine in
  let hvm = Hvm.create machine ~ros:kernel in
  let ros = Mv_hw.Topology.ros_cores topo in
  let lendc = List.hd (List.rev (Mv_hw.Topology.cores_of topo 2)) in
  let sojourn_a = Mv_obs.Metrics.latency machine.Machine.metrics ~ns:"part" "a" in
  let sojourn_b = Mv_obs.Metrics.latency machine.Machine.metrics ~ns:"part" "b" in
  let completed_a = ref 0 and completed_b = ref 0 in
  let makespan = ref 0 in
  (* Targets re-read the tenant's core list at every arrival, so a lent
     core joins (and leaves) tenant A's rotation automatically. *)
  let spawn_job ~tenant ~cores_of_tenant ~svc i =
    let cores = cores_of_tenant () in
    let target = List.nth cores (i mod List.length cores) in
    let t0 = Exec.local_now exec in
    ignore
      (Exec.spawn exec ~cpu:target
         ~name:(Printf.sprintf "%s-%d" tenant i)
         (fun () ->
           Machine.charge machine svc;
           let now = Exec.local_now exec in
           let sj = float_of_int (now - t0) in
           if tenant = "a" then begin
             Mv_obs.Metrics.observe sojourn_a sj;
             incr completed_a
           end
           else begin
             Mv_obs.Metrics.observe sojourn_b sj;
             incr completed_b
           end;
           if now > !makespan then makespan := now))
  in
  (* Tenant A's open-loop source. *)
  ignore
    (Exec.spawn exec ~cpu:(List.nth ros 1) ~name:"a-src" (fun () ->
         for i = 0 to part_jobs_a - 1 do
           spawn_job ~tenant:"a"
             ~cores_of_tenant:(fun () -> Mv_hw.Topology.cores_of topo 1)
             ~svc:part_svc_a i;
           Exec.sleep exec part_inter_a
         done));
  (* Tenant B's burst source doubles as the lending controller. *)
  ignore
    (Exec.spawn exec ~cpu:(List.hd ros) ~name:"b-src" (fun () ->
         for _ = 1 to part_bursts_b do
           for j = 0 to part_burst_jobs_b - 1 do
             spawn_job ~tenant:"b"
               ~cores_of_tenant:(fun () -> Mv_hw.Topology.cores_of topo 2)
               ~svc:part_svc_b j;
             Exec.sleep exec part_inter_b
           done;
           let in_burst = part_burst_jobs_b * part_inter_b in
           if lending then begin
             Exec.sleep exec (part_settle_b - in_burst);
             Hvm.lend_core hvm ~core:lendc ~dst:1;
             Exec.sleep exec (part_period_b - part_settle_b);
             Hvm.reclaim_core hvm ~core:lendc
           end
           else Exec.sleep exec (part_period_b - in_burst)
         done));
  Sim.run machine.Machine.sim;
  let pct l p = Cycles.to_us (int_of_float (Mv_obs.Metrics.latency_percentile l p)) in
  let tenant l completed =
    Obj
      [
        ("completed", Int completed);
        ("p50_us", Float (pct l 50.0, 1));
        ("p99_us", Float (pct l 99.0, 1));
      ]
  in
  Obj
    [
      ("tenant_a", tenant sojourn_a !completed_a);
      ("tenant_b", tenant sojourn_b !completed_b);
      ("makespan_cycles", Int !makespan);
      ( "aggregate_throughput_cps",
        Float (float_of_int (!completed_a + !completed_b) /. Cycles.to_sec !makespan, 1) );
      ("lends", Int (Hvm.lends hvm));
      ("reclaims", Int (Hvm.reclaims hvm));
    ]

let partition_bench () =
  let partitions = !partition_machine.partitions in
  (* The two sides are independent whole-machine runs. *)
  match par_map (fun lending -> measure_partition ~lending) [ false; true ] with
  | [ off; on ] ->
      report
        (Printf.sprintf
           "Partition: 2-tenant consolidation (hrt_parts [%s]), core lending on vs off"
           (String.concat ";" (List.map string_of_int partitions)))
        ~notes:
          [ "(lending_on: tenant B lends its last core to tenant A for each idle\n\
            \ gap and reclaims it before its next burst; lending_off: the core\n\
            \ idles.  Each side reports both tenants' sojourn percentiles and the\n\
            \ aggregate throughput)" ]
        [
          ("partitions", List (List.map (fun n -> Int n) partitions));
          ("jobs_a", Int part_jobs_a);
          ("service_cycles_a", Int part_svc_a);
          ("interarrival_cycles_a", Int part_inter_a);
          ("bursts_b", Int part_bursts_b);
          ("burst_jobs_b", Int part_burst_jobs_b);
          ("service_cycles_b", Int part_svc_b);
          ("burst_period_cycles", Int part_period_b);
          ("lending_off", off);
          ("lending_on", on);
        ]
  | _ -> assert false

(* ------------------------------------------------------------------ *)
(* Host: wall-clock cost of the engine itself (events/sec, words/event)*)
(* ------------------------------------------------------------------ *)

(* Unlike every other section, these numbers are HOST-side: how fast the
   OCaml engine chews through simulated events and how much it allocates
   per event.  The simulated-cycle outputs of the same workloads are part
   of the golden surface and must not move; the host wall-clock and the
   GC words are exactly what hot-loop work is allowed to change.  Cells
   run sequentially (never under --jobs): Gc.quick_stat is per-domain and
   a concurrent cell would pollute the deltas. *)
let measure_host_cell f =
  Gc.full_major ();
  let s0 = Gc.quick_stat () in
  let t0 = Unix.gettimeofday () in
  let events, sim_cycles = f () in
  let t1 = Unix.gettimeofday () in
  let s1 = Gc.quick_stat () in
  let wall = t1 -. t0 in
  let minor = s1.Gc.minor_words -. s0.Gc.minor_words in
  Obj
    [
      ("events", Int events);
      ("sim_cycles", Int sim_cycles);
      ("wall_s", Float (wall, 4));
      ("events_per_sec", Float ((if wall <= 0.0 then 0.0 else float_of_int events /. wall), 0));
      ( "minor_words_per_event",
        Float ((if events = 0 then 0.0 else minor /. float_of_int events), 2) );
      ("minor_words", Float (minor, 0));
      ("promoted_words", Float (s1.Gc.promoted_words -. s0.Gc.promoted_words, 0));
      ("major_words", Float (s1.Gc.major_words -. s0.Gc.major_words, 0));
      ("minor_collections", Int (s1.Gc.minor_collections - s0.Gc.minor_collections));
    ]

(* Cell 1: the standard 1000-group scale run (the scale bench's base
   config at one mid-curve load point, admission off). *)
let host_scale_offered = 400_000.0

let host_scale_cell () =
  measure_host_cell (fun () ->
      let r = Loadgen.run { scale_config with Loadgen.lg_offered_cps = host_scale_offered } in
      (r.Loadgen.r_events, r.Loadgen.r_makespan))

(* Cell 2: the 16k-fiber dispatch stress — thousands of Ready fibers
   yielding on few cores, the pure executor/event-queue path with no
   fabric or memory model in the way (the shape that used to go O(n^2)
   before the one-armed-dispatch fix). *)
let host_stress_fibers = 16_384
let host_stress_yields = 4

let host_stress_cell () =
  measure_host_cell (fun () ->
      let machine = Machine.create () in
      let exec = machine.Machine.exec in
      let ros = Array.of_list (Mv_hw.Topology.ros_cores machine.Machine.topo) in
      let nros = Array.length ros in
      for i = 0 to host_stress_fibers - 1 do
        ignore
          (Exec.spawn exec ~cpu:ros.(i mod nros)
             ~name:(Printf.sprintf "stress-%d" i)
             (fun () ->
               for _ = 1 to host_stress_yields do
                 Machine.charge machine 100;
                 Exec.yield exec
               done))
      done;
      Sim.run machine.Machine.sim;
      (Sim.events_processed machine.Machine.sim, Sim.now machine.Machine.sim))

(* Cell 3: the Racket VM's interpreter loop, the host cost of every
   hybrid run.  binary-tree-2 (allocation-heavy) and fannkuch-redux
   (arithmetic and vectors) run natively at their test sizes.  Minor words
   and wall time are counted inside [Engine.run_program] only, so machine
   set-up and engine start-up stay out of the per-instruction figures.
   Major words cover the two whole runs, engine start included: a heap's
   segment storage goes straight to the major heap, and the second run's
   heap takes the first's from the domain's pool, so a heap that stops
   reusing pooled storage about doubles the figure.  It is deterministic
   when the pool starts empty, as it does in a [host]-only invocation. *)
let host_racket_benches = [ "binary-tree-2"; "fannkuch-redux" ]

let host_racket_cell () =
  Gc.full_major ();
  let major0 = (Gc.quick_stat ()).Gc.major_words in
  let instrs, sim_cycles, wall, words =
    List.fold_left
      (fun (instrs_acc, cycles_acc, wall_acc, words_acc) name ->
        let b = Mv_workloads.Benchmarks.find name in
        let source = b.Mv_workloads.Benchmarks.b_source b.Mv_workloads.Benchmarks.b_test_n in
        let instrs = ref 0 and wall = ref 0.0 and words = ref 0.0 in
        let prog =
          {
            Toolchain.prog_name = name;
            prog_main =
              (fun env ->
                let e = Mv_racket.Engine.start env in
                let w0 = Gc.minor_words () and t0 = Unix.gettimeofday () in
                Mv_racket.Engine.run_program e source;
                wall := Unix.gettimeofday () -. t0;
                words := Gc.minor_words () -. w0;
                instrs := Mv_racket.Vm.instructions_executed (Mv_racket.Engine.vm e));
          }
        in
        let rs = Toolchain.run_native prog in
        ( instrs_acc + !instrs,
          cycles_acc + rs.Toolchain.rs_wall_cycles,
          wall_acc +. !wall,
          words_acc +. !words ))
      (0, 0, 0.0, 0.0) host_racket_benches
  in
  let major = (Gc.quick_stat ()).Gc.major_words -. major0 in
  Obj
    [
      ("instructions", Int instrs);
      ("sim_cycles", Int sim_cycles);
      ("wall_s", Float (wall, 4));
      ( "minstr_per_sec",
        Float ((if wall <= 0.0 then 0.0 else float_of_int instrs /. wall /. 1e6), 2) );
      ("minor_words_per_instr", Float ((if instrs = 0 then 0.0 else words /. float_of_int instrs), 2));
      ("minor_words", Float (words, 0));
      ("major_words", Float (major, 0));
    ]

(* BENCH_host.json's wall-clock fields are machine-dependent noise; the
   CI allocation guard keys on minor_words_per_event,
   minor_words_per_instr, minor_collections, promoted words per event and
   major_words only. *)
let host_bench () =
  let dispatch = host_stress_cell () in
  let scale = host_scale_cell () in
  let racket = host_racket_cell () in
  report "Host: engine events/sec, GC words/event, VM words/instr (wall-clock, not simulated)"
    ~notes:
      [ "(simulated cycles are pinned by the golden surface; wall-clock, words/event and\n\
        \ words/instr are the knobs host-perf work is allowed to move)" ]
    [
      ( "scale",
        Obj
          [
            ("groups", Int scale_config.Loadgen.lg_groups);
            ("calls_per_group", Int scale_config.Loadgen.lg_calls_per_group);
            ("offered_cps", Float (host_scale_offered, 0));
            ("cell", scale);
          ] );
      ( "dispatch_stress",
        Obj
          [
            ("fibers", Int host_stress_fibers);
            ("yields_per_fiber", Int host_stress_yields);
            ("cell", dispatch);
          ] );
      ( "racket",
        Obj
          [
            ("benchmarks", List (List.map (fun b -> Str b) host_racket_benches));
            ("cell", racket);
          ] );
    ]

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks of the simulator's own hot paths           *)
(* ------------------------------------------------------------------ *)

let microbench () =
  let open Bechamel in
  let open Toolkit in
  let pt = Mv_hw.Page_table.create () in
  let flags = Mv_hw.Page_table.(f_present lor f_writable lor f_user) in
  for i = 0 to 1023 do
    Mv_hw.Page_table.map pt (i * 4096) ~frame:i ~flags
  done;
  let tlb = Mv_hw.Tlb.create () in
  let pte = Mv_hw.Page_table.{ frame = 1; pte_flags = flags } in
  Mv_hw.Tlb.fill tlb ~page:5 pte;
  (* The queue holds a steady 5.5k pending events, the mean depth of a
     fabric-open run, so every push+pop pays full-depth sifts.  Each push
     lands a pseudo-random delay after the time just popped, as in a
     running simulation. *)
  let q = Mv_engine.Event_queue.create () in
  let lcg = ref 1 in
  let delay () =
    lcg := ((!lcg * 1103515245) + 12345) land 0x3FFFFFFF;
    !lcg land 0xFFFF
  in
  for _ = 1 to 5_500 do
    Mv_engine.Event_queue.push q ~time:(delay ()) ()
  done;
  let tests =
    [
      Test.make ~name:"page_table.walk" (Staged.stage (fun () -> Mv_hw.Page_table.walk pt 0x5000));
      Test.make ~name:"page_table.map+unmap"
        (Staged.stage (fun () ->
             Mv_hw.Page_table.map pt 0x7f0000 ~frame:9 ~flags;
             ignore (Mv_hw.Page_table.unmap pt 0x7f0000)));
      Test.make ~name:"tlb.lookup" (Staged.stage (fun () -> Mv_hw.Tlb.lookup tlb ~page:5));
      Test.make ~name:"event_queue.push+pop"
        (Staged.stage (fun () ->
             let now = Mv_engine.Event_queue.next_time q in
             Mv_engine.Event_queue.push q ~time:(now + delay ()) ();
             Mv_engine.Event_queue.pop_exn q));
      Test.make ~name:"sexp.parse"
        (Staged.stage (fun () -> Mv_racket.Sexp.parse_all "(define (f x) (+ x 1))"));
    ]
  in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.25) ~kde:None () in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let estimate elt =
    let raw = Benchmark.run cfg Instance.[ monotonic_clock ] elt in
    let ns =
      match Analyze.OLS.estimates (Analyze.one ols Instance.monotonic_clock raw) with
      | Some [ t ] -> Float (t, 1)
      | _ -> Str "no estimate"
    in
    Obj [ ("name", Str (Test.Elt.name elt)); ("ns_per_op", ns) ]
  in
  report "Microbenchmarks (host-side, Bechamel): simulator hot paths"
    [ ("ops", List (List.concat_map (fun test -> List.map estimate (Test.elements test)) tests)) ]

(* ------------------------------------------------------------------ *)

let sections =
  [
    ("fig2", fig2);
    ("fig8", fig8);
    ("fig9", fig9);
    ("fig10", fig10);
    ("fig11", fig11);
    ("fig12", fig12);
    ("fig13", fig13);
    ("fabric", fabric_bench);
    ("scale", scale_bench);
    ("numa", numa_bench);
    ("partition", partition_bench);
    ("mempath", mempath);
    ("host", host_bench);
    ("ablation_symcache", ablation_symcache);
    ("ablation_channel", ablation_channel);
    ("ablation_porting", ablation_porting);
    ("ablation_wp", ablation_wp);
    ("native_model", native_model);
    ("microbench", microbench);
  ]

(* Install the machines the flags describe, or say why they cannot be
   built.  The partition section lends the last core of partition 2 to
   partition 1, so partition 2 needs a core left to keep. *)
let configure ~jobs:j ~topology ~partitions =
  let ( let* ) = Result.bind in
  let numa = numa_machine_of topology in
  let part = { Machine.default_config with partitions } in
  let* () = if j >= 1 then Ok () else Error (Printf.sprintf "--jobs %d: need at least 1" j) in
  let* () = Machine.check_config numa in
  let* () = Machine.check_config part in
  let* () =
    match partitions with
    | _ :: lender :: _ when lender >= 2 -> Ok ()
    | _ ->
        Error
          (Printf.sprintf
             "--partitions %s: the partition section lends from a partition 2 of at \
              least two cores"
             (String.concat "," (List.map string_of_int partitions)))
  in
  jobs := j;
  numa_machine := numa;
  partition_machine := part;
  Ok ()

let main json list j topology partitions names =
  match configure ~jobs:j ~topology ~partitions with
  | Error msg ->
      prerr_endline ("bench: " ^ msg);
      2
  | Ok () when list ->
      List.iter (fun (name, _) -> print_endline name) sections;
      0
  | Ok () -> (
      match List.find_opt (fun name -> not (List.mem_assoc name sections)) names with
      | Some name ->
          prerr_endline ("bench: unknown section " ^ name ^ " (try --list)");
          2
      | None ->
          if names = [] then
            print_string
              "Multiverse reproduction benchmarks (all sections)\n\
               machine: 2 sockets x 4 cores @ 2.2 GHz (simulated)\n";
          List.iter
            (fun name ->
              let r = (List.assoc name sections) () in
              print_string (to_text r);
              if json then Printf.printf "wrote %s\n" (write ~section:name r);
              flush stdout)
            (if names = [] then List.map fst sections else names);
          0)

let () =
  let open Mv_util.Args in
  let term =
    const main
    $ flag ~names:[ "json" ]
        ~doc:"Also write each section's report to BENCH_<section>.json."
    $ flag ~names:[ "list" ] ~doc:"List the sections."
    $ opt int ~default:1 ~names:[ "jobs" ] ~docv:"N"
        ~doc:"Worker domains for the measurement matrices.  Output is identical at any N."
    $ opt topology ~default:(4, 32) ~names:[ "topology" ] ~docv:"SxC"
        ~doc:"Machine geometry of the numa section (default 4x32)."
    $ opt partitions ~default:[ 2; 2 ] ~names:[ "partitions" ] ~docv:"SPEC"
        ~doc:
          "HRT partition spec of the partition section on the 2x4 box \
           (comma-separated core counts, default 2,2).  Partition 2 lends a \
           core, so it needs at least two cores."
    $ pos_all string ~docv:"SECTION" ~doc:"Sections to run (default: all; see --list)."
  in
  exit
    (run ~name:"bench"
       ~doc:"Regenerate the paper's tables and figures on the Multiverse simulation" term
       (List.tl (Array.to_list Sys.argv)))
