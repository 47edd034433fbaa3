(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (Section 5), plus the ablations called out in
   DESIGN.md, plus a Bechamel microbenchmark suite of the simulator's own
   hot paths.

   Run everything:       dune exec bench/main.exe
   Run one section:      dune exec bench/main.exe -- fig9 fig13
   Parallel matrices:    dune exec bench/main.exe -- scale --jobs 4
   List sections:        dune exec bench/main.exe -- --list *)

module H = Mv_util.Histogram
module Cycles = Mv_util.Cycles
module Table = Mv_util.Table
module Machine = Mv_engine.Machine
module Sim = Mv_engine.Sim
module Exec = Mv_engine.Exec
module Nautilus = Mv_aerokernel.Nautilus
module Hvm = Mv_hvm.Hvm
module Event_channel = Mv_hvm.Event_channel
module Fabric = Mv_hvm.Fabric
open Multiverse

let section name = Printf.printf "\n======== %s ========\n%!" name
let printf = Printf.printf

(* --jobs N: fan independent whole-machine measurement cells out over
   worker domains.  Every cell builds its own machine and returns a
   value; results merge in submission order, so each table and every
   BENCH_*.json number is bit-identical at any job count. *)
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
  section "Figure 2: round-trip latencies of ROS<->HRT interactions";
  let merger = measure_merger () in
  let async = measure_channel_rtt ~kind:Event_channel.Async ~ros_core:0 ~hrt_core:7 in
  let sync_cross = measure_channel_rtt ~kind:Event_channel.Sync ~ros_core:0 ~hrt_core:7 in
  let sync_same = measure_channel_rtt ~kind:Event_channel.Sync ~ros_core:5 ~hrt_core:7 in
  let t = Table.create ~headers:[ "Item"; "Cycles"; "Time"; "Paper" ] in
  let row name c paper =
    Table.add_row t [ name; string_of_int c; Format.asprintf "%a" Cycles.pp_time c; paper ]
  in
  row "Address Space Merger" merger "~33 K / 1.5 us";
  row "Asynchronous Call" async "~25 K / 1.1 us";
  row "Synchronous Call (different socket)" sync_cross "~1060 / 48 ns";
  row "Synchronous Call (same socket)" sync_same "~790 / 36 ns";
  print_string (Table.to_string t)

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
  section "Figure 8: source lines of code for Multiverse (and substrates)";
  match repo_root () with
  | None -> printf "cannot locate repository root; skipping\n"
  | Some root ->
      let d sub = Filename.concat root sub in
      let t = Table.create ~headers:[ "Component"; "SLOC"; "Paper (C/ASM/Perl)" ] in
      let row name dirs paper =
        let n = List.fold_left (fun acc dir -> acc + count_lines (d dir)) 0 dirs in
        Table.add_row t [ name; string_of_int n; paper ]
      in
      (* The paper's four components... *)
      let mv = d "lib/multiverse" in
      Table.add_row t
        [ "Multiverse runtime";
          string_of_int (count_lines ~filter:(fun f -> not (List.mem f toolchain_files)) mv);
          "2297" ];
      Table.add_row t
        [ "Multiverse toolchain";
          string_of_int (count_lines ~filter:(fun f -> List.mem f toolchain_files) mv);
          "130" ];
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
      print_string (Table.to_string t)

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
  section "Figure 9: system-call latency (cycles), Virtual vs Multiverse";
  (* One cell per syscall case (its Virtual and Multiverse runs).  The
     "read" case's shared scratch buffer is safe: it is the only case
     touching it, and a case's two runs stay within one cell. *)
  let results =
    par_map
      (fun case ->
        let name, _, _ = case in
        let v = measure_syscall ~multiverse:false case in
        let m = measure_syscall ~multiverse:true case in
        (name, v, m))
      syscall_cases
  in
  (* close was measured as an open+close pair: subtract the open cost. *)
  let find n = List.find (fun (name, _, _) -> name = n) results in
  let _, ov, om = find "open" in
  let results =
    List.map
      (fun (name, v, m) ->
        if name = "close" then (name, Float.max 1. (v -. ov), Float.max 1. (m -. om))
        else (name, v, m))
      results
  in
  let t = Table.create ~headers:[ "Syscall"; "Virtual"; "Multiverse"; "M/V" ] in
  List.iter
    (fun (name, v, m) ->
      Table.add_row t
        [ name; Printf.sprintf "%.0f" v; Printf.sprintf "%.0f" m; Printf.sprintf "%.2fx" (m /. v) ])
    results;
  print_string (Table.to_string t);
  printf "(log-scale bars; expect the two vdso calls to be slightly FASTER under\n";
  printf " Multiverse and everything else to pay ~an async channel round trip)\n";
  let log_bar v = String.make (int_of_float (8.0 *. log10 (Float.max 10. v))) '#' in
  List.iter
    (fun (name, v, m) ->
      printf "%-14s V %-28s %.0f\n" name (log_bar v) v;
      printf "%-14s M %-28s %.0f\n" "" (log_bar m) m)
    results

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
  | `Multiverse_ported ->
      let options =
        { Toolchain.default_mv_options with mv_porting = Runtime.full_porting }
      in
      Toolchain.run_multiverse ~options (Toolchain.hybridize prog)

let fig10 () =
  section "Figure 10: system utilization of the Racket benchmarks (native)";
  let t =
    Table.create
      ~headers:
        [ "Benchmark"; "n"; "System Calls"; "Time (User/Sys) (s)"; "Max Resident (KB)";
          "Page Faults"; "Context Switches"; "TLB Hit %" ]
  in
  List.iter
    (fun (b, rs) ->
      let ru = rs.Toolchain.rs_rusage in
      Table.add_row t
        [ b.Mv_workloads.Benchmarks.b_name;
          string_of_int b.Mv_workloads.Benchmarks.b_bench_n;
          string_of_int (Toolchain.total_syscalls rs);
          Printf.sprintf "%.3f/%.3f" (Cycles.to_sec ru.Mv_ros.Rusage.utime)
            (Cycles.to_sec ru.Mv_ros.Rusage.stime);
          string_of_int ru.Mv_ros.Rusage.maxrss_kb;
          string_of_int (ru.Mv_ros.Rusage.minflt + ru.Mv_ros.Rusage.majflt);
          string_of_int (ru.Mv_ros.Rusage.nvcsw + ru.Mv_ros.Rusage.nivcsw);
          Printf.sprintf "%.1f" (100.0 *. Mv_ros.Rusage.tlb_hit_rate ru);
        ])
    (par_map (fun b -> (b, run_bench ~mode:`Native b)) all_benchmarks);
  print_string (Table.to_string t)

let engine_startup_program =
  {
    Toolchain.prog_name = "racket-startup";
    prog_main =
      (fun env ->
        let engine = Mv_racket.Engine.start env in
        Mv_racket.Engine.finish engine);
  }

let fig11 () =
  section "Figure 11: syscalls of the Racket runtime with no benchmark (startup)";
  let rs = Toolchain.run_native engine_startup_program in
  Format.printf "%a@?" (H.pp_bars ~width:40) rs.Toolchain.rs_syscalls;
  printf "TOTAL %d\n" (Toolchain.total_syscalls rs)

let fig12 () =
  section "Figure 12: syscalls of a binary-tree-2 run";
  let b = Mv_workloads.Benchmarks.find "binary-tree-2" in
  let rs = run_bench ~mode:`Native b in
  Format.printf "%a@?" (H.pp_bars ~width:40) rs.Toolchain.rs_syscalls;
  printf "TOTAL %d\n" (Toolchain.total_syscalls rs)

let fig13 () =
  section "Figure 13: benchmark runtime, Native vs Virtual vs Multiverse";
  let t =
    Table.create
      ~headers:
        [ "Benchmark"; "Native (s)"; "Virtual (s)"; "Multiverse (s)"; "M/N"; "interactions/s" ]
  in
  (* One cell per benchmark (its three mode runs); rows print after the
     barrier, in benchmark order. *)
  let measured =
    par_map
      (fun b ->
        let rs_n = run_bench ~mode:`Native b in
        let rs_v = run_bench ~mode:`Virtual b in
        let rs_m = run_bench ~mode:`Multiverse b in
        (b, rs_n, rs_v, rs_m))
      all_benchmarks
  in
  let rows =
    List.map
      (fun (b, rs_n, rs_v, rs_m) ->
        let wn = Toolchain.wall_seconds rs_n in
        let wv = Toolchain.wall_seconds rs_v in
        let wm = Toolchain.wall_seconds rs_m in
        (* ABI interactions = syscalls + page faults, per native second. *)
        let inter =
          float_of_int
            (Toolchain.total_syscalls rs_n + rs_n.Toolchain.rs_rusage.Mv_ros.Rusage.minflt)
          /. wn
        in
        Table.add_row t
          [ b.Mv_workloads.Benchmarks.b_name;
            Printf.sprintf "%.4f" wn;
            Printf.sprintf "%.4f" wv;
            Printf.sprintf "%.4f" wm;
            Printf.sprintf "%.2fx" (wm /. wn);
            Printf.sprintf "%.0f" inter;
          ];
        (b.Mv_workloads.Benchmarks.b_name, wn, wv, wm))
      measured
  in
  print_string (Table.to_string t);
  printf "\n(Multiverse is the unoptimized automatic hybridization: the overhead\n";
  printf " tracks the rate of Linux-ABI interactions, as in the paper.)\n\n";
  let maxw = List.fold_left (fun acc (_, _, _, m) -> Float.max acc m) 0.0 rows in
  List.iter
    (fun (name, wn, wv, wm) ->
      let bar w = String.make (max 1 (int_of_float (50.0 *. w /. maxw))) '#' in
      printf "%-15s N %s\n" name (bar wn);
      printf "%-15s V %s\n" "" (bar wv);
      printf "%-15s M %s\n" "" (bar wm))
    rows

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
  section "Ablation A1: override symbol cache (paper Section 4.2)";
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
  let t = Table.create ~headers:[ "Config"; "Wall (cycles)"; "Lookups"; "Cache hits" ] in
  Table.add_row t [ "per-call lookup (paper)"; string_of_int w_off; string_of_int l_off; string_of_int h_off ];
  Table.add_row t [ "with symbol cache"; string_of_int w_on; string_of_int l_on; string_of_int h_on ];
  print_string (Table.to_string t);
  printf "saved %d cycles (%.2f%% of wall)\n" (w_off - w_on)
    (100.0 *. float_of_int (w_off - w_on) /. float_of_int w_off)

let ablation_channel () =
  section "Ablation A2: async vs sync event channels for forwarding";
  let b = Mv_workloads.Benchmarks.find "binary-tree-2" in
  let prog = Mv_workloads.Benchmarks.program b ~n:10 in
  let hx = Toolchain.hybridize prog in
  let run kind =
    let options = { Toolchain.default_mv_options with mv_channel = kind } in
    (Toolchain.run_multiverse ~options hx).Toolchain.rs_wall_cycles
  in
  let w_async = run Event_channel.Async in
  let w_sync = run Event_channel.Sync in
  let t = Table.create ~headers:[ "Channel"; "Wall (cycles)"; "vs async" ] in
  Table.add_row t [ "async (hypercall+interrupt)"; string_of_int w_async; "1.00x" ];
  Table.add_row t
    [ "sync (shared-memory polling)"; string_of_int w_sync;
      Printf.sprintf "%.2fx" (float_of_int w_sync /. float_of_int w_async) ];
  print_string (Table.to_string t)

let ablation_porting () =
  section "Ablation A3: the incremental (subtractive) porting path";
  let b = Mv_workloads.Benchmarks.find "binary-tree-2" in
  let prog = Mv_workloads.Benchmarks.program b ~n:10 in
  let hx = Toolchain.hybridize prog in
  let native = (Toolchain.run_native prog).Toolchain.rs_wall_cycles in
  let run porting =
    let options = { Toolchain.default_mv_options with mv_porting = porting } in
    let rs = Toolchain.run_multiverse ~options hx in
    let rt = Option.get rs.Toolchain.rs_runtime in
    (rs.Toolchain.rs_wall_cycles, Runtime.faults_serviced_locally rt)
  in
  let w0, f0 = run Runtime.no_porting in
  let w1, f1 = run { Runtime.port_mmap = true; port_signals = false; port_faults = false } in
  let w2, f2 = run { Runtime.port_mmap = true; port_signals = false; port_faults = true } in
  let w3, f3 = run Runtime.full_porting in
  let t =
    Table.create ~headers:[ "Ported functionality"; "Wall (cycles)"; "vs native"; "local faults" ]
  in
  let row name w f =
    Table.add_row t
      [ name; string_of_int w; Printf.sprintf "%.2fx" (float_of_int w /. float_of_int native);
        string_of_int f ]
  in
  row "none (automatic hybridization)" w0 f0;
  row "+ mmap/munmap/mprotect overrides" w1 f1;
  row "+ local fault handling" w2 f2;
  row "+ local signal delivery (full)" w3 f3;
  Table.add_row t [ "native (reference)"; string_of_int native; "1.00x"; "-" ];
  print_string (Table.to_string t)

let ablation_wp () =
  section "Ablation A4: CR0.WP in kernel mode (paper Section 4.4)";
  (* An HRT thread writes a read-only page.  With WP set the fault is
     caught and forwarded; with WP clear the write silently corrupts. *)
  let run_case ~wp =
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
    (!forwarded, Nautilus.stats_silent_writes nk)
  in
  let fwd_on, silent_on = run_case ~wp:true in
  let fwd_off, silent_off = run_case ~wp:false in
  let t = Table.create ~headers:[ "CR0.WP"; "Faults caught+forwarded"; "Silent corruptions" ] in
  Table.add_row t [ "set (Nautilus default)"; string_of_int fwd_on; string_of_int silent_on ];
  Table.add_row t [ "clear (x86 ring-0 default)"; string_of_int fwd_off; string_of_int silent_off ];
  print_string (Table.to_string t);
  printf "(with WP clear the COW write proceeds against the shared page —\n";
  printf " the paper's \"mysterious memory corruption\")\n"

(* ------------------------------------------------------------------ *)
(* Bonus: the Native usage model (Section 2's HPCG claim)              *)
(* ------------------------------------------------------------------ *)

let hpcg_linux ~nx ~workers =
  let machine = Machine.create () in
  let kernel = Mv_ros.Kernel.create machine in
  let out = ref None in
  ignore
    (Mv_ros.Kernel.spawn_process kernel ~name:"hpcg" (fun p ->
         let env = Mv_guest.Env.native kernel p in
         let pool = Mv_parallel.Pool.create (Mv_parallel.Pool.Linux env) ~nworkers:workers in
         let t0 = Exec.local_now machine.Machine.exec in
         let r = Mv_parallel.Hpcg.run pool ~nx () in
         let t = Exec.local_now machine.Machine.exec - t0 in
         Mv_parallel.Pool.shutdown pool;
         out := Some (r, t)));
  Sim.run machine.Machine.sim;
  Option.get !out

let hpcg_hrt ~nx ~workers =
  let machine = Machine.create ~hrt_parts:[ workers + 1 ] () in
  let nk = Nautilus.create machine in
  let out = ref None in
  let master = List.hd (Mv_aerokernel.Nautilus.cores nk) in
  ignore
    (Exec.spawn machine.Machine.exec ~cpu:master ~name:"hpcg-master" (fun () ->
         Nautilus.boot nk;
         let pool = Mv_parallel.Pool.create (Mv_parallel.Pool.Aerokernel nk) ~nworkers:workers in
         let t0 = Exec.local_now machine.Machine.exec in
         let r = Mv_parallel.Hpcg.run pool ~nx () in
         let t = Exec.local_now machine.Machine.exec - t0 in
         Mv_parallel.Pool.shutdown pool;
         out := Some (r, t)));
  Sim.run machine.Machine.sim;
  Option.get !out

let native_model () =
  section "Bonus: Native model — HPCG on Linux pthreads vs AeroKernel threads";
  printf
    "(reproduces the Section-2 claim behind Multiverse: hand-ported HRT\n\
    \ runtimes sped HPCG up by up to 20%%/40%% because AeroKernel thread\n\
    \ primitives are orders of magnitude cheaper than Linux's)\n";
  let t =
    Table.create
      ~headers:[ "Grid"; "Regions"; "Linux (ms)"; "HRT native (ms)"; "HRT speedup"; "Converged" ]
  in
  List.iter
    (fun nx ->
      let rl, tl = hpcg_linux ~nx ~workers:4 in
      let rn, tn = hpcg_hrt ~nx ~workers:4 in
      Table.add_row t
        [ Printf.sprintf "%d^3" nx;
          string_of_int rl.Mv_parallel.Hpcg.regions;
          Printf.sprintf "%.3f" (Cycles.to_ms tl);
          Printf.sprintf "%.3f" (Cycles.to_ms tn);
          Printf.sprintf "%.2fx" (float_of_int tl /. float_of_int tn);
          Printf.sprintf "%b/%b" (Mv_parallel.Hpcg.verify rl) (Mv_parallel.Hpcg.verify rn);
        ])
    [ 8; 12; 16; 24; 32 ];
  print_string (Table.to_string t);
  printf "(the advantage is largest where parallel regions are fine-grained and\n";
  printf " shrinks as per-region compute amortizes the synchronization cost)\n\n";
  (* The same comparison for the authors' other ported runtime: the NESL
     VCODE interpreter, every vector op a parallel region. *)
  let vcode_linux ~n ~workers =
    let machine = Machine.create () in
    let kernel = Mv_ros.Kernel.create machine in
    let out = ref 0 in
    ignore
      (Mv_ros.Kernel.spawn_process kernel ~name:"vcode" (fun p ->
           let env = Mv_guest.Env.native kernel p in
           let pool = Mv_parallel.Pool.create (Mv_parallel.Pool.Linux env) ~nworkers:workers in
           let interp =
             Mv_vcode.Vcode.create ~pool ~charge:(fun c -> env.Mv_guest.Env.work c) ()
           in
           let t0 = Exec.local_now machine.Machine.exec in
           ignore
             (Mv_vcode.Vcode.run interp (Mv_vcode.Vcode.parse (Mv_vcode.Samples.sum_of_squares n)) []);
           out := Exec.local_now machine.Machine.exec - t0;
           Mv_parallel.Pool.shutdown pool));
    Sim.run machine.Machine.sim;
    !out
  in
  let vcode_hrt ~n ~workers =
    let machine = Machine.create ~hrt_parts:[ workers + 1 ] () in
    let nk = Nautilus.create machine in
    let out = ref 0 in
    let master = List.hd (Mv_aerokernel.Nautilus.cores nk) in
    ignore
      (Exec.spawn machine.Machine.exec ~cpu:master ~name:"vcode-hrt" (fun () ->
           Nautilus.boot nk;
           let pool = Mv_parallel.Pool.create (Mv_parallel.Pool.Aerokernel nk) ~nworkers:workers in
           let interp =
             Mv_vcode.Vcode.create ~pool ~charge:(fun c -> Machine.charge machine c) ()
           in
           let t0 = Exec.local_now machine.Machine.exec in
           ignore
             (Mv_vcode.Vcode.run interp (Mv_vcode.Vcode.parse (Mv_vcode.Samples.sum_of_squares n)) []);
           out := Exec.local_now machine.Machine.exec - t0;
           Mv_parallel.Pool.shutdown pool));
    Sim.run machine.Machine.sim;
    !out
  in
  let t2 = Table.create ~headers:[ "VCODE vector length"; "Linux (us)"; "HRT native (us)"; "HRT speedup" ] in
  List.iter
    (fun n ->
      let tl = vcode_linux ~n ~workers:4 in
      let tn = vcode_hrt ~n ~workers:4 in
      Table.add_row t2
        [ string_of_int n;
          Printf.sprintf "%.1f" (Cycles.to_us tl);
          Printf.sprintf "%.1f" (Cycles.to_us tn);
          Printf.sprintf "%.2fx" (float_of_int tl /. float_of_int tn);
        ])
    [ 1_000; 10_000; 100_000 ];
  print_string (Table.to_string t2)

(* ------------------------------------------------------------------ *)
(* The forwarding fabric: batching, routing and local fast paths       *)
(* ------------------------------------------------------------------ *)

type fabric_metrics = {
  fm_async_rtt : int;
  fm_sync_cross_rtt : int;
  fm_sync_same_rtt : int;
  fm_groups : int;
  fm_riders : int;
  fm_calls_per_rider : int;
  fm_forwarded : int;  (* forwarded calls per run *)
  fm_batched_cycles : int;
  fm_calls_per_sec : float;
  fm_rider_count : int;
  fm_drains : int;
  fm_drained : int;
  fm_transport_batched : int;
  fm_local_hits : int;
  fm_local_misses : int;
  fm_fabric_calls : int;
}

(* Four concurrent execution groups, each with concurrent nested callers
   hammering the group's endpoint: the configuration the batching layer is
   for. *)
let measure_fabric () =
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
  let ( batched_cycles,
        (fcalls, transport_on, nriders, drains, drained, hits, misses),
        async_rtt,
        sync_cross_rtt,
        sync_same_rtt ) =
    match par_map (fun f -> f ()) cells with
    | [ `Timed (bc, cb); `Rtt a; `Rtt sc; `Rtt ss ] -> (bc, cb, a, sc, ss)
    | _ -> assert false
  in
  let forwarded = groups * riders * calls in
  {
    fm_async_rtt = async_rtt;
    fm_sync_cross_rtt = sync_cross_rtt;
    fm_sync_same_rtt = sync_same_rtt;
    fm_groups = groups;
    fm_riders = riders;
    fm_calls_per_rider = calls;
    fm_forwarded = forwarded;
    fm_batched_cycles = batched_cycles;
    fm_calls_per_sec = float_of_int forwarded /. Cycles.to_sec batched_cycles;
    fm_rider_count = nriders;
    fm_drains = drains;
    fm_drained = drained;
    fm_transport_batched = transport_on;
    fm_local_hits = hits;
    fm_local_misses = misses;
    fm_fabric_calls = fcalls;
  }

(* Memoized so `fabric --json` (text section + JSON writer in one
   invocation) measures once. *)
let fabric_metrics = lazy (measure_fabric ())

let cycles_per_call m cycles = float_of_int cycles /. float_of_int m.fm_forwarded

let batch_occupancy m =
  if m.fm_drains = 0 then 0.0
  else float_of_int m.fm_drained /. float_of_int m.fm_drains

let local_hit_rate m =
  if m.fm_fabric_calls = 0 then 0.0
  else float_of_int m.fm_local_hits /. float_of_int m.fm_fabric_calls

let fabric_bench () =
  section "Fabric: batched forwarding (4 concurrent groups)";
  let m = Lazy.force fabric_metrics in
  let t = Table.create ~headers:[ "Metric"; "Value" ] in
  let row name v = Table.add_row t [ name; v ] in
  row "async RTT (cycles)" (string_of_int m.fm_async_rtt);
  row "sync RTT cross-socket (cycles)" (string_of_int m.fm_sync_cross_rtt);
  row "sync RTT same-socket (cycles)" (string_of_int m.fm_sync_same_rtt);
  row "groups x riders x calls"
    (Printf.sprintf "%d x %d x %d" m.fm_groups m.fm_riders m.fm_calls_per_rider);
  row "batched cycles/forwarded call"
    (Printf.sprintf "%.0f" (cycles_per_call m m.fm_batched_cycles));
  row "forwarded calls/sec (batched)" (Printf.sprintf "%.0f" m.fm_calls_per_sec);
  row "doorbells" (string_of_int m.fm_transport_batched);
  row "riders / drains / drained"
    (Printf.sprintf "%d / %d / %d" m.fm_rider_count m.fm_drains m.fm_drained);
  row "batch occupancy (drained/drain)" (Printf.sprintf "%.2f" (batch_occupancy m));
  row "local fast-path hit rate" (Printf.sprintf "%.2f" (local_hit_rate m));
  print_string (Table.to_string t)

(* BENCH_fabric.json, via the shared Bench_report emitter. *)
let write_fabric_json path =
  let m = Lazy.force fabric_metrics in
  let open Bench_report in
  write ~path ~kind:"multiverse-fabric-bench"
    [
      ( "rtt_cycles",
        Obj
          [
            ("async", Int m.fm_async_rtt);
            ("sync_cross_socket", Int m.fm_sync_cross_rtt);
            ("sync_same_socket", Int m.fm_sync_same_rtt);
          ] );
      ("forwarded_calls_per_sec", Float (m.fm_calls_per_sec, 1));
      ( "batch",
        Obj
          [
            ("groups", Int m.fm_groups);
            ("riders_per_group", Int m.fm_riders);
            ("calls_per_rider", Int m.fm_calls_per_rider);
            ("forwarded_calls", Int m.fm_forwarded);
            ("batched_cycles_per_call", Float (cycles_per_call m m.fm_batched_cycles, 1));
            ("doorbells_batched", Int m.fm_transport_batched);
            ("riders", Int m.fm_rider_count);
            ("drains", Int m.fm_drains);
            ("drained", Int m.fm_drained);
            ("occupancy", Float (batch_occupancy m, 3));
          ] );
      ( "local_fast_path",
        Obj
          [
            ("hits", Int m.fm_local_hits);
            ("misses", Int m.fm_local_misses);
            ("hit_rate", Float (local_hit_rate m, 3));
          ] );
    ];
  printf "wrote %s (%.0f cycles per forwarded call)\n%!" path
    (cycles_per_call m m.fm_batched_cycles)

(* ------------------------------------------------------------------ *)
(* The memory path: huge pages, size-aware TLB, walk cache, shootdowns *)
(* ------------------------------------------------------------------ *)

(* One side of the A/B: binary-tree-2 (the GC-heavy workload) under
   Multiverse with the huge-page memory path on or off.  Everything here
   comes from the rusage memory-path counters plus the collector's own
   statistics. *)
type mempath_side = {
  ms_wall : int;
  ms_gc : int;  (* collections *)
  ms_hit_rate : float;
  ms_walks : int;
  ms_levels_per_walk : float;
  ms_walk_cycles : int;
  ms_fill_cycles : int;
  ms_shootdowns : int;
  ms_shootdown_cycles : int;
  ms_promotions : int;
  ms_splits : int;
  ms_minflt : int;
}

let ms_mem_cycles s = s.ms_walk_cycles + s.ms_fill_cycles + s.ms_shootdown_cycles

let ms_cycles_per_gc s =
  if s.ms_gc = 0 then 0.0 else float_of_int (ms_mem_cycles s) /. float_of_int s.ms_gc

let mempath_n = 11

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
  let options = { Toolchain.default_mv_options with mv_huge_pages = huge_pages } in
  let rs = Toolchain.run_multiverse ~options (Toolchain.hybridize prog) in
  let ru = rs.Toolchain.rs_rusage in
  let open Mv_ros.Rusage in
  {
    ms_wall = rs.Toolchain.rs_wall_cycles;
    ms_gc = !collections;
    ms_hit_rate = tlb_hit_rate ru;
    ms_walks = ru.walks;
    ms_levels_per_walk =
      (if ru.walks = 0 then 0.0 else float_of_int ru.walk_levels /. float_of_int ru.walks);
    ms_walk_cycles = ru.walk_cycles;
    ms_fill_cycles = ru.fill_cycles;
    ms_shootdowns = ru.shootdowns;
    ms_shootdown_cycles = ru.shootdown_cycles;
    ms_promotions = ru.huge_promotions;
    ms_splits = ru.huge_splits;
    ms_minflt = ru.minflt;
  }

let mempath_reduction_pct ~on ~off =
  let c_on = float_of_int (ms_mem_cycles on) and c_off = float_of_int (ms_mem_cycles off) in
  if c_off = 0.0 then 0.0 else 100.0 *. (c_off -. c_on) /. c_off

(* The higher half: sweep-read the AeroKernel identity map on the HRT core.
   With 1 GiB leaves the whole span fits the 1G TLB class and there is
   nothing to demand-fill; with 4 KiB pages every 64 KiB stride is a fresh
   page.  The warmup sweep populates the mappings, [Tlb.reset_stats] (and
   the walk-cache counterpart) zeroes the counters, and the measured sweep
   reports steady state. *)
type hh_side = {
  hh_accesses : int;
  hh_fills : int;  (* demand fills during the measured sweep *)
  hh_hit_rate : float;
}

let measure_hh_sweep ~huge_pages =
  let machine = Machine.create ~huge_pages () in
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
             {
               hh_accesses = accesses;
               hh_fills = Nautilus.stats_hh_fills nk - fills0;
               hh_hit_rate =
                 (if hits + misses = 0 then 1.0
                  else float_of_int hits /. float_of_int (hits + misses));
             }));
  Sim.run machine.Machine.sim;
  Option.get !out

(* The two workload sides and the two higher-half sweeps are four
   independent machines; memoized so `mempath --json` measures once. *)
let mempath_sides =
  lazy
    (match
       par_map
         (fun f -> f ())
         [
           (fun () -> `Side (measure_mempath_side ~huge_pages:true));
           (fun () -> `Side (measure_mempath_side ~huge_pages:false));
           (fun () -> `Hh (measure_hh_sweep ~huge_pages:true));
           (fun () -> `Hh (measure_hh_sweep ~huge_pages:false));
         ]
     with
    | [ `Side on; `Side off; `Hh hh_on; `Hh hh_off ] -> (on, off, hh_on, hh_off)
    | _ -> assert false)

let mempath () =
  section "Memory path: huge pages on vs off (binary-tree-2, Multiverse)";
  let on, off, hh_on, hh_off = Lazy.force mempath_sides in
  let t = Table.create ~headers:[ "Metric"; "Huge on"; "Huge off" ] in
  let row name f = Table.add_row t [ name; f on; f off ] in
  row "wall (cycles)" (fun s -> string_of_int s.ms_wall);
  row "GC collections" (fun s -> string_of_int s.ms_gc);
  row "TLB hit rate" (fun s -> Printf.sprintf "%.2f%%" (100.0 *. s.ms_hit_rate));
  row "page walks" (fun s -> string_of_int s.ms_walks);
  row "levels/walk" (fun s -> Printf.sprintf "%.2f" s.ms_levels_per_walk);
  row "walk cycles" (fun s -> string_of_int s.ms_walk_cycles);
  row "fill cycles" (fun s -> string_of_int s.ms_fill_cycles);
  row "shootdowns (per-core)" (fun s -> string_of_int s.ms_shootdowns);
  row "shootdown cycles" (fun s -> string_of_int s.ms_shootdown_cycles);
  row "memory-path cycles" (fun s -> string_of_int (ms_mem_cycles s));
  row "memory-path cycles/GC" (fun s -> Printf.sprintf "%.0f" (ms_cycles_per_gc s));
  row "2M promotions" (fun s -> string_of_int s.ms_promotions);
  row "2M splits" (fun s -> string_of_int s.ms_splits);
  row "page faults" (fun s -> string_of_int s.ms_minflt);
  print_string (Table.to_string t);
  printf "memory-path reduction: %.1f%% (acceptance: >= 30%%)\n"
    (mempath_reduction_pct ~on ~off);
  let t2 = Table.create ~headers:[ "Higher-half sweep"; "Huge on"; "Huge off" ] in
  let row2 name f = Table.add_row t2 [ name; f hh_on; f hh_off ] in
  row2 "accesses" (fun s -> string_of_int s.hh_accesses);
  row2 "demand fills (measured)" (fun s -> string_of_int s.hh_fills);
  row2 "TLB hit rate" (fun s -> Printf.sprintf "%.2f%%" (100.0 *. s.hh_hit_rate));
  print_string (Table.to_string t2);
  printf "(acceptance: huge on is fault-free with >= 99%% hits after warmup)\n"

(* BENCH_mempath.json, via the shared Bench_report emitter. *)
let write_mempath_json path =
  let on, off, hh_on, hh_off = Lazy.force mempath_sides in
  let open Bench_report in
  let side s =
    Obj
      [
        ("wall_cycles", Int s.ms_wall);
        ("gc_collections", Int s.ms_gc);
        ("tlb_hit_rate", Float (s.ms_hit_rate, 4));
        ("walks", Int s.ms_walks);
        ("levels_per_walk", Float (s.ms_levels_per_walk, 3));
        ("walk_cycles", Int s.ms_walk_cycles);
        ("fill_cycles", Int s.ms_fill_cycles);
        ("shootdowns", Int s.ms_shootdowns);
        ("shootdown_cycles", Int s.ms_shootdown_cycles);
        ("memory_path_cycles", Int (ms_mem_cycles s));
        ("memory_path_cycles_per_gc", Float (ms_cycles_per_gc s, 1));
        ("huge_promotions", Int s.ms_promotions);
        ("huge_splits", Int s.ms_splits);
        ("page_faults", Int s.ms_minflt);
      ]
  in
  let hh s =
    Obj
      [
        ("accesses", Int s.hh_accesses);
        ("demand_fills", Int s.hh_fills);
        ("tlb_hit_rate", Float (s.hh_hit_rate, 4));
      ]
  in
  write ~path ~kind:"multiverse-mempath-bench"
    [
      ("workload", Str "binary-tree-2");
      ("n", Int mempath_n);
      ("huge_on", side on);
      ("huge_off", side off);
      ("memory_path_reduction_pct", Float (mempath_reduction_pct ~on ~off, 2));
      ("higher_half", Obj [ ("huge_on", hh hh_on); ("huge_off", hh hh_off) ]);
    ];
  printf "wrote %s (memory-path reduction %.2f%%, hh hit rate %.2f%%)\n%!" path
    (mempath_reduction_pct ~on ~off)
    (100.0 *. hh_on.hh_hit_rate)

(* ------------------------------------------------------------------ *)
(* Scale: open-loop load at 1k execution groups, admission on vs off   *)
(* ------------------------------------------------------------------ *)

module Loadgen = Mv_workloads.Loadgen

(* One sweep point: the identical open-loop workload with admission
   control off (unbounded queueing) and on (bounded rings + token-bucket
   admission, Shed policy).  The offered loads straddle the pool's
   service capacity so the curve shows the knee. *)
type scale_point = {
  sp_offered : float;
  sp_off : Loadgen.results;
  sp_on : Loadgen.results;
}

(* Token rate = each group's fair share of the pool's service capacity
   (~4 pollers x 2.2e9 / ~21k cycles ~= 420k calls/s over 1000 groups
   ~= 1.9e-7 tokens/cycle): below the knee the bucket is invisible, past
   it the surplus is shed at admission instead of queueing. *)
let scale_admission () =
  Fabric.make_admission ~policy:Fabric.Shed ~ring_capacity:8 ~queue_capacity:16
    ~rate:1.9e-7 ~burst:4 ()

let scale_groups = 1000
let scale_offered = [ 50_000.0; 100_000.0; 200_000.0; 400_000.0; 800_000.0; 1_600_000.0 ]

let measure_scale () =
  let base =
    {
      Loadgen.default_config with
      Loadgen.lg_groups = scale_groups;
      lg_calls_per_group = 16;
      lg_workers_per_group = 16;
      lg_arrival = Loadgen.Poisson;
    }
  in
  (* offered x {off,on}: every cell is an independent load-generator run,
     so the whole matrix fans out. *)
  let cells =
    List.concat_map (fun cps -> [ (cps, false); (cps, true) ]) scale_offered
  in
  let results =
    par_map
      (fun (cps, admit) ->
        let cfg =
          if admit then
            { base with Loadgen.lg_offered_cps = cps; lg_admission = Some (scale_admission ()) }
          else { base with Loadgen.lg_offered_cps = cps }
        in
        Loadgen.run cfg)
      cells
  in
  let rec pair = function
    | off :: on :: rest -> (off, on) :: pair rest
    | _ -> []
  in
  List.map2
    (fun cps (off, on) -> { sp_offered = cps; sp_off = off; sp_on = on })
    scale_offered (pair results)

(* Memoized so `scale --json` (text section + JSON writer in one
   invocation) sweeps once. *)
let scale_points = lazy (measure_scale ())

let scale_bench () =
  section
    (Printf.sprintf "Scale: open-loop load, %d execution groups, shedding on vs off"
       scale_groups);
  let points = Lazy.force scale_points in
  let t =
    Table.create
      ~headers:
        [ "offered (k/s)"; "mode"; "tput (k/s)"; "p50 (us)"; "p99 (us)"; "dropped"; "flips" ]
  in
  List.iter
    (fun p ->
      let row mode (r : Loadgen.results) flips =
        Table.add_row t
          [
            Printf.sprintf "%.0f" (p.sp_offered /. 1e3);
            mode;
            Printf.sprintf "%.1f" (r.Loadgen.r_throughput_cps /. 1e3);
            Printf.sprintf "%.1f" r.Loadgen.r_p50_us;
            Printf.sprintf "%.1f" r.Loadgen.r_p99_us;
            string_of_int r.Loadgen.r_dropped;
            flips;
          ]
      in
      row "off" p.sp_off "-";
      row "shed" p.sp_on
        (Printf.sprintf "%d/%d" p.sp_on.Loadgen.r_shed_flips p.sp_on.Loadgen.r_shed_restores))
    points;
  print_string (Table.to_string t);
  printf
    "(acceptance: past the knee, shed-mode p99 stays bounded while control-off p99 \
     collapses; shed-mode throughput is never retrograde)\n"

(* BENCH_scale.json: the latency-vs-offered-load curve. *)
let write_scale_json path =
  let points = Lazy.force scale_points in
  let open Bench_report in
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
  let ad = scale_admission () in
  write ~path ~kind:"multiverse-scale-bench"
    [
      ("groups", Int scale_groups);
      ("calls_per_group", Int 16);
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
      ( "curve",
        List
          (List.map
             (fun p ->
               Obj
                 [
                   ("offered_cps", Float (p.sp_offered, 0));
                   ("control_off", side p.sp_off);
                   ("control_on", side p.sp_on);
                 ])
             points) );
    ];
  let last = List.nth points (List.length points - 1) in
  printf "wrote %s (at %.0fk/s offered: p99 off %.0fus vs shed %.0fus)\n%!" path
    (last.sp_offered /. 1e3) last.sp_off.Loadgen.r_p99_us last.sp_on.Loadgen.r_p99_us

(* ------------------------------------------------------------------ *)
(* NUMA: group-affine vs round-robin placement on a big box            *)
(* ------------------------------------------------------------------ *)

(* Geometry for the NUMA section (override with --topology SxC).  The
   default is the 4x32 box with HRT pinned to the upper half of the last
   socket: affine placement can then co-locate a group's server core,
   poller group and frames on one socket, while round-robin scatters the
   server cores across all four. *)
let numa_topology = ref (4, 32)

let numa_geometry () =
  let sockets, cores_per_socket = !numa_topology in
  let total = sockets * cores_per_socket in
  (sockets, cores_per_socket, min 16 (max 1 (total / 2)))

let numa_loadgen placement =
  let sockets, cores_per_socket, hrt = numa_geometry () in
  Loadgen.run
    {
      Loadgen.default_config with
      Loadgen.lg_groups = 400;
      lg_sockets = sockets;
      lg_cores_per_socket = cores_per_socket;
      lg_partitions = [ hrt ];
      lg_placement = placement;
    }

(* The demand-paging side, measured directly against the sharded
   allocator: a spread of faulting ROS cores builds a working set either
   from the flat first-fit order (zone 0 first — every remote socket
   pays the distance) or NUMA-locally via [alloc_near], then the access
   cost is priced with the machine's distance-scaled memory model. *)
type numa_mem = { nm_frames : int; nm_remote : int; nm_cycles : int }

let numa_frames_per_core = 64
let numa_accesses_per_frame = 32

let measure_numa_mem ~local =
  let sockets, cores_per_socket, hrt = numa_geometry () in
  let machine = Machine.create ~sockets ~cores_per_socket ~hrt_parts:[ hrt ] () in
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
  { nm_frames = !frames; nm_remote = !remote; nm_cycles = !cycles }

(* Memoized: `numa --json` runs the matrix once.  Four independent
   whole-machine cells, so the matrix fans out under --jobs. *)
let numa_cells =
  lazy
    (match
       par_map
         (fun f -> f ())
         [
           (fun () -> `Lg (numa_loadgen Fabric.Spread));
           (fun () -> `Lg (numa_loadgen Fabric.Affine));
           (fun () -> `Mem (measure_numa_mem ~local:false));
           (fun () -> `Mem (measure_numa_mem ~local:true));
         ]
     with
    | [ `Lg rr; `Lg aff; `Mem flat; `Mem near ] -> (rr, aff, flat, near)
    | _ -> assert false)

let numa_fabric_delta_cycles ~rr ~aff =
  Cycles.of_us (rr.Loadgen.r_p50_us -. aff.Loadgen.r_p50_us)

let numa_bench () =
  let sockets, cores_per_socket, hrt = numa_geometry () in
  section
    (Printf.sprintf
       "NUMA: group-affine vs round-robin placement (%dx%d cores, %d hrt)"
       sockets cores_per_socket hrt);
  let rr, aff, flat, near = Lazy.force numa_cells in
  let t =
    Table.create
      ~headers:[ "placement"; "tput (k/s)"; "p50 (us)"; "p99 (us)"; "p50 (cycles)" ]
  in
  let row name (r : Loadgen.results) =
    Table.add_row t
      [
        name;
        Printf.sprintf "%.1f" (r.Loadgen.r_throughput_cps /. 1e3);
        Printf.sprintf "%.1f" r.Loadgen.r_p50_us;
        Printf.sprintf "%.1f" r.Loadgen.r_p99_us;
        string_of_int (Cycles.of_us r.Loadgen.r_p50_us);
      ]
  in
  row "round-robin" rr;
  row "affine" aff;
  print_string (Table.to_string t);
  printf "fabric p50 sojourn delta: %d cycles (round-robin minus affine)\n"
    (numa_fabric_delta_cycles ~rr ~aff);
  let t2 =
    Table.create ~headers:[ "allocator"; "frames"; "remote"; "memory-path cycles" ]
  in
  let row2 name m =
    Table.add_row t2
      [
        name;
        string_of_int m.nm_frames;
        string_of_int m.nm_remote;
        string_of_int m.nm_cycles;
      ]
  in
  row2 "flat first-fit" flat;
  row2 "alloc_near" near;
  print_string (Table.to_string t2);
  printf "memory-path delta: %d cycles (flat minus local)\n"
    (flat.nm_cycles - near.nm_cycles);
  printf
    "(acceptance: affine placement wins both deltas — no remote frames, lower \
     sync-channel RTT)\n"

(* BENCH_numa.json: both sides of the placement A/B with their cycle
   deltas. *)
let write_numa_json path =
  let sockets, cores_per_socket, hrt = numa_geometry () in
  let rr, aff, flat, near = Lazy.force numa_cells in
  let open Bench_report in
  let lg_side (r : Loadgen.results) =
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
  let mem_side m =
    Obj
      [
        ("frames", Int m.nm_frames);
        ("remote_frames", Int m.nm_remote);
        ("memory_path_cycles", Int m.nm_cycles);
      ]
  in
  write ~path ~kind:"multiverse-numa-bench"
    [
      ("topology", Str (Printf.sprintf "%dx%d" sockets cores_per_socket));
      ("hrt_cores", Int hrt);
      ("groups", Int 400);
      ( "fabric",
        Obj
          [
            ("round_robin", lg_side rr);
            ("affine", lg_side aff);
            ( "p50_sojourn_delta_cycles",
              Int (numa_fabric_delta_cycles ~rr ~aff) );
          ] );
      ( "memory_path",
        Obj
          [
            ("flat", mem_side flat);
            ("local", mem_side near);
            ("delta_cycles", Int (flat.nm_cycles - near.nm_cycles));
          ] );
    ];
  printf "wrote %s (fabric delta %d cycles, memory-path delta %d cycles)\n%!"
    path
    (numa_fabric_delta_cycles ~rr ~aff)
    (flat.nm_cycles - near.nm_cycles)

(* ------------------------------------------------------------------ *)
(* Partition: 2-tenant consolidation with dynamic core lending         *)
(* ------------------------------------------------------------------ *)

(* Two HRT tenants on the reference box ([--partitions], default [2;2]):
   tenant A runs a steady open-loop stream sized to overload its own
   cores; tenant B runs short periodic bursts and is otherwise idle.
   With lending ON, tenant B lends its last core to A for every idle gap
   and reclaims it just before the next burst; with lending OFF the core
   idles.  The consolidation story is A's p99 sojourn collapsing while
   B's burst latency stays put (the reclaim returns the core in time). *)

let partition_spec = ref [ 2; 2 ]

let part_jobs_a = 360
let part_inter_a = 3_750 (* cycles between tenant-A arrivals *)
let part_svc_a = 9_000 (* per-job service; 2.4 cores of demand on 2 cores *)
let part_bursts_b = 5
let part_period_b = 300_000 (* tenant-B burst period *)
let part_burst_jobs_b = 8
let part_inter_b = 2_000
let part_svc_b = 6_000
let part_settle_b = 40_000 (* burst start -> lend of the idle core *)

type tenant_res = { tn_completed : int; tn_p50_us : float; tn_p99_us : float }

type partition_res = {
  pt_a : tenant_res;
  pt_b : tenant_res;
  pt_makespan : Cycles.t;
  pt_tput_cps : float;  (* aggregate completions / makespan *)
  pt_lends : int;
  pt_reclaims : int;
}

let measure_partition ~lending =
  let machine = Machine.create ~hrt_parts:!partition_spec () in
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
    { tn_completed = completed; tn_p50_us = pct l 50.0; tn_p99_us = pct l 99.0 }
  in
  {
    pt_a = tenant sojourn_a !completed_a;
    pt_b = tenant sojourn_b !completed_b;
    pt_makespan = !makespan;
    pt_tput_cps =
      float_of_int (!completed_a + !completed_b) /. Cycles.to_sec !makespan;
    pt_lends = Hvm.lends hvm;
    pt_reclaims = Hvm.reclaims hvm;
  }

(* Memoized: `partition --json` runs the A/B once; the two cells are
   independent whole-machine runs, so they fan out under --jobs. *)
let partition_cells =
  lazy
    (match par_map (fun lending -> measure_partition ~lending) [ false; true ] with
    | [ off; on ] -> (off, on)
    | _ -> assert false)

let partition_bench () =
  section
    (Printf.sprintf
       "Partition: 2-tenant consolidation (hrt_parts [%s]), core lending on vs off"
       (String.concat ";" (List.map string_of_int !partition_spec)));
  let off, on = Lazy.force partition_cells in
  let t =
    Table.create
      ~headers:
        [ "lending"; "tenant"; "completed"; "p50 (us)"; "p99 (us)"; "agg tput (k/s)" ]
  in
  let rows mode r =
    let row name (tn : tenant_res) agg =
      Table.add_row t
        [
          mode;
          name;
          string_of_int tn.tn_completed;
          Printf.sprintf "%.1f" tn.tn_p50_us;
          Printf.sprintf "%.1f" tn.tn_p99_us;
          agg;
        ]
    in
    row "A (steady)" r.pt_a (Printf.sprintf "%.1f" (r.pt_tput_cps /. 1e3));
    row "B (bursty)" r.pt_b ""
  in
  rows "off" off;
  rows "on" on;
  print_string (Table.to_string t);
  printf "lends/reclaims with lending on: %d/%d\n" on.pt_lends on.pt_reclaims;
  printf
    "(acceptance: lending collapses tenant A's p99 sojourn and raises aggregate \
     throughput; tenant B's burst p99 is unchanged — the reclaim beats the next \
     burst)\n"

(* BENCH_partition.json: both sides of the lending A/B. *)
let write_partition_json path =
  let off, on = Lazy.force partition_cells in
  let open Bench_report in
  let tenant (tn : tenant_res) =
    Obj
      [
        ("completed", Int tn.tn_completed);
        ("p50_us", Float (tn.tn_p50_us, 1));
        ("p99_us", Float (tn.tn_p99_us, 1));
      ]
  in
  let side r =
    Obj
      [
        ("tenant_a", tenant r.pt_a);
        ("tenant_b", tenant r.pt_b);
        ("makespan_cycles", Int r.pt_makespan);
        ("aggregate_throughput_cps", Float (r.pt_tput_cps, 1));
        ("lends", Int r.pt_lends);
        ("reclaims", Int r.pt_reclaims);
      ]
  in
  write ~path ~kind:"multiverse-partition-bench"
    [
      ( "partitions",
        List (List.map (fun n -> Int n) !partition_spec) );
      ("jobs_a", Int part_jobs_a);
      ("service_cycles_a", Int part_svc_a);
      ("interarrival_cycles_a", Int part_inter_a);
      ("bursts_b", Int part_bursts_b);
      ("burst_jobs_b", Int part_burst_jobs_b);
      ("service_cycles_b", Int part_svc_b);
      ("burst_period_cycles", Int part_period_b);
      ("lending_off", side off);
      ("lending_on", side on);
    ];
  printf "wrote %s (tenant A p99: off %.0fus vs on %.0fus)\n%!" path
    off.pt_a.tn_p99_us on.pt_a.tn_p99_us

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
type host_cell = {
  ho_name : string;
  ho_events : int;  (* simulated events processed *)
  ho_sim_cycles : int;  (* simulated makespan: deterministic, golden-adjacent *)
  ho_wall_s : float;
  ho_minor_words : float;
  ho_promoted_words : float;
  ho_major_words : float;
}

let measure_host_cell name f =
  Gc.full_major ();
  let s0 = Gc.quick_stat () in
  let t0 = Unix.gettimeofday () in
  let events, sim_cycles = f () in
  let t1 = Unix.gettimeofday () in
  let s1 = Gc.quick_stat () in
  {
    ho_name = name;
    ho_events = events;
    ho_sim_cycles = sim_cycles;
    ho_wall_s = t1 -. t0;
    ho_minor_words = s1.Gc.minor_words -. s0.Gc.minor_words;
    ho_promoted_words = s1.Gc.promoted_words -. s0.Gc.promoted_words;
    ho_major_words = s1.Gc.major_words -. s0.Gc.major_words;
  }

let ho_events_per_sec c =
  if c.ho_wall_s <= 0.0 then 0.0 else float_of_int c.ho_events /. c.ho_wall_s

let ho_minor_words_per_event c =
  if c.ho_events = 0 then 0.0 else c.ho_minor_words /. float_of_int c.ho_events

(* Cell 1: the standard 1000-group scale run (the scale bench's base
   config at one mid-curve load point, admission off). *)
let host_scale_offered = 400_000.0

let host_scale_cell () =
  measure_host_cell "scale-1000-groups" (fun () ->
      let r =
        Loadgen.run
          {
            Loadgen.default_config with
            Loadgen.lg_groups = scale_groups;
            lg_calls_per_group = 16;
            lg_workers_per_group = 16;
            lg_arrival = Loadgen.Poisson;
            lg_offered_cps = host_scale_offered;
          }
      in
      (r.Loadgen.r_events, r.Loadgen.r_makespan))

(* Cell 2: the 16k-fiber dispatch stress — thousands of Ready fibers
   yielding on few cores, the pure executor/event-queue path with no
   fabric or memory model in the way (the shape that used to go O(n^2)
   before the one-armed-dispatch fix). *)
let host_stress_fibers = 16_384
let host_stress_yields = 4

let host_stress_cell () =
  measure_host_cell "dispatch-16k-fibers" (fun () ->
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

(* Memoized so `host --json` measures once. *)
let host_cells = lazy [ host_scale_cell (); host_stress_cell () ]

(* Cell 3: the Racket VM's interpreter loop, the host cost of every
   hybrid run.  binary-tree-2 (allocation-heavy) and fannkuch-redux
   (arithmetic and vectors) run natively at their test sizes.  Words and
   wall time are counted inside [Engine.run_program] only, so machine set-up
   and engine start-up stay out of the per-instruction figures. *)
type racket_cell = {
  rk_instrs : int;  (* VM instructions: deterministic *)
  rk_sim_cycles : int;  (* simulated wall cycles of the runs: deterministic *)
  rk_wall_s : float;
  rk_minor_words : float;
}

let host_racket_benches = [ "binary-tree-2"; "fannkuch-redux" ]

let host_racket_cell () =
  List.fold_left
    (fun acc name ->
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
      {
        rk_instrs = acc.rk_instrs + !instrs;
        rk_sim_cycles = acc.rk_sim_cycles + rs.Toolchain.rs_wall_cycles;
        rk_wall_s = acc.rk_wall_s +. !wall;
        rk_minor_words = acc.rk_minor_words +. !words;
      })
    { rk_instrs = 0; rk_sim_cycles = 0; rk_wall_s = 0.0; rk_minor_words = 0.0 }
    host_racket_benches

let host_racket = lazy (host_racket_cell ())

let rk_minstr_per_sec c =
  if c.rk_wall_s <= 0.0 then 0.0 else float_of_int c.rk_instrs /. c.rk_wall_s /. 1e6

let rk_minor_words_per_instr c =
  if c.rk_instrs = 0 then 0.0 else c.rk_minor_words /. float_of_int c.rk_instrs

let host_bench () =
  section "Host: engine events/sec, GC words/event, VM words/instr (wall-clock, not simulated)";
  let cells = Lazy.force host_cells in
  let t =
    Table.create
      ~headers:
        [ "workload"; "events"; "wall (s)"; "events/sec"; "minor w/event"; "promoted w/event" ]
  in
  List.iter
    (fun c ->
      Table.add_row t
        [
          c.ho_name;
          string_of_int c.ho_events;
          Printf.sprintf "%.3f" c.ho_wall_s;
          Printf.sprintf "%.0f" (ho_events_per_sec c);
          Printf.sprintf "%.1f" (ho_minor_words_per_event c);
          Printf.sprintf "%.2f"
            (if c.ho_events = 0 then 0.0
             else c.ho_promoted_words /. float_of_int c.ho_events);
        ])
    cells;
  print_string (Table.to_string t);
  let rk = Lazy.force host_racket in
  printf
    "racket VM (%s, native, test sizes): %d instructions, %.3f s, %.1f M instr/s, %.2f minor \
     w/instr\n"
    (String.concat " + " host_racket_benches)
    rk.rk_instrs rk.rk_wall_s (rk_minstr_per_sec rk) (rk_minor_words_per_instr rk);
  printf
    "(simulated cycles are pinned by the golden surface; wall-clock, words/event and\n\
    \ words/instr are the knobs host-perf work is allowed to move)\n"

(* BENCH_host.json.  Wall-clock fields are machine-dependent noise; the
   CI allocation guard keys on minor_words_per_event and
   minor_words_per_instr only. *)
let write_host_json path =
  let cells = Lazy.force host_cells in
  let rk = Lazy.force host_racket in
  let open Bench_report in
  let cell c =
    Obj
      [
        ("events", Int c.ho_events);
        ("sim_cycles", Int c.ho_sim_cycles);
        ("wall_s", Float (c.ho_wall_s, 4));
        ("events_per_sec", Float (ho_events_per_sec c, 0));
        ("minor_words_per_event", Float (ho_minor_words_per_event c, 2));
        ("minor_words", Float (c.ho_minor_words, 0));
        ("promoted_words", Float (c.ho_promoted_words, 0));
        ("major_words", Float (c.ho_major_words, 0));
      ]
  in
  write ~path ~kind:"multiverse-host-bench"
    [
      ( "scale",
        Obj
          [
            ("groups", Int scale_groups);
            ("calls_per_group", Int 16);
            ("offered_cps", Float (host_scale_offered, 0));
            ("cell", cell (List.nth cells 0));
          ] );
      ( "dispatch_stress",
        Obj
          [
            ("fibers", Int host_stress_fibers);
            ("yields_per_fiber", Int host_stress_yields);
            ("cell", cell (List.nth cells 1));
          ] );
      ( "racket",
        Obj
          [
            ("benchmarks", List (List.map (fun b -> Str b) host_racket_benches));
            ( "cell",
              Obj
                [
                  ("instructions", Int rk.rk_instrs);
                  ("sim_cycles", Int rk.rk_sim_cycles);
                  ("wall_s", Float (rk.rk_wall_s, 4));
                  ("minstr_per_sec", Float (rk_minstr_per_sec rk, 2));
                  ("minor_words_per_instr", Float (rk_minor_words_per_instr rk, 2));
                  ("minor_words", Float (rk.rk_minor_words, 0));
                ] );
          ] );
    ];
  let c = List.nth cells 0 in
  printf "wrote %s (scale: %.0f events/sec, %.1f minor words/event)\n%!" path
    (ho_events_per_sec c) (ho_minor_words_per_event c)

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks of the simulator's own hot paths           *)
(* ------------------------------------------------------------------ *)

let microbench () =
  section "Microbenchmarks (host-side, Bechamel): simulator hot paths";
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
  let q = Mv_engine.Event_queue.create () in
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
             Mv_engine.Event_queue.push q ~time:5 ();
             ignore (Mv_engine.Event_queue.pop q)));
      Test.make ~name:"sexp.parse"
        (Staged.stage (fun () -> Mv_racket.Sexp.parse_all "(define (f x) (+ x 1))"));
    ]
  in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.25) ~kde:None () in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  List.iter
    (fun test ->
      List.iter
        (fun elt ->
          let raw = Benchmark.run cfg Instance.[ monotonic_clock ] elt in
          let est = Analyze.one ols Instance.monotonic_clock raw in
          match Analyze.OLS.estimates est with
          | Some [ t ] -> printf "%-24s %10.1f ns/op\n" (Test.Elt.name elt) t
          | _ -> printf "%-24s (no estimate)\n" (Test.Elt.name elt))
        (Test.elements test))
    tests

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

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  (* --json additionally writes machine-readable metrics next to the text
     output (CI uploads them as artifacts); it composes with section
     names: the fabric file is written when the fabric section is in
     scope, the mempath file when mempath is.  With no section names,
     --json writes both and skips the text sections. *)
  let json = List.mem "--json" args in
  let args = List.filter (fun a -> a <> "--json") args in
  (* --jobs N: worker domains for the measurement matrices.  Output is
     identical at any N. *)
  let rec take_jobs acc = function
    | "--jobs" :: n :: rest ->
        (match int_of_string_opt n with
        | Some j when j >= 1 -> jobs := j
        | _ ->
            prerr_endline ("bench: bad --jobs " ^ n);
            exit 2);
        take_jobs acc rest
    (* --topology SxC: geometry for the numa section (default 4x32). *)
    | "--topology" :: s :: rest ->
        (match String.index_opt s 'x' with
        | Some i -> (
            let a = String.sub s 0 i
            and b = String.sub s (i + 1) (String.length s - i - 1) in
            match (int_of_string_opt a, int_of_string_opt b) with
            | Some sk, Some cp when sk > 0 && cp > 0 && sk * cp >= 2 ->
                numa_topology := (sk, cp)
            | _ ->
                prerr_endline
                  ("bench: bad --topology " ^ s ^ " (want SOCKETSxCORES, e.g. 4x32)");
                exit 2)
        | None ->
            prerr_endline
              ("bench: bad --topology " ^ s ^ " (want SOCKETSxCORES, e.g. 4x32)");
            exit 2);
        take_jobs acc rest
    (* --partitions SPEC: HRT partition geometry for the partition
       section (comma-separated core counts, default 2,2; the last
       partition must keep a core when it lends, so every entry must be
       at least 1 and the lending tenant's at least 2). *)
    | "--partitions" :: s :: rest ->
        let parts =
          try List.map int_of_string (String.split_on_char ',' s) with _ -> []
        in
        (match parts with
        | _ :: _ :: _ when List.for_all (fun n -> n > 0) parts ->
            partition_spec := parts
        | _ ->
            prerr_endline
              ("bench: bad --partitions " ^ s
             ^ " (want two or more comma-separated positive core counts, e.g. 2,2)");
            exit 2);
        take_jobs acc rest
    | a :: rest -> take_jobs (a :: acc) rest
    | [] -> List.rev acc
  in
  let args = take_jobs [] args in
  let wants name = args = [] || List.mem name args in
  (match args with
  | [ "--list" ] -> List.iter (fun (name, _) -> printf "%s\n" name) sections
  | [] ->
      if not json then begin
        printf "Multiverse reproduction benchmarks (all sections)\n";
        printf "machine: 2 sockets x 4 cores @ 2.2 GHz (simulated)\n";
        List.iter (fun (_, f) -> f ()) sections
      end
  | names -> (
      match List.find_opt (fun name -> not (List.mem_assoc name sections)) names with
      | Some name ->
          prerr_endline ("bench: unknown section " ^ name ^ " (try --list)");
          exit 2
      | None -> List.iter (fun name -> (List.assoc name sections) ()) names));
  if json && (wants "fig2" || wants "fabric") then write_fabric_json "BENCH_fabric.json";
  if json && wants "mempath" then write_mempath_json "BENCH_mempath.json";
  if json && wants "scale" then write_scale_json "BENCH_scale.json";
  if json && wants "numa" then write_numa_json "BENCH_numa.json";
  if json && wants "partition" then write_partition_json "BENCH_partition.json";
  if json && wants "host" then write_host_json "BENCH_host.json"
