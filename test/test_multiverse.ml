(* End-to-end tests of the Multiverse core: hybridization, split execution,
   event forwarding, overrides, usage models, and the paper's behavioural
   guarantees (identical user-visible behaviour across native / virtual /
   Multiverse execution; identical page-fault traces). *)

module H = Mv_util.Histogram
open Multiverse

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* A small test program exercising the whole ABI: output, files, memory,
   signals-by-protection, timers, scheduling, and the vdso calls.  It
   prints every result a call returns, so [expected_stdout] pins what each
   entry does in every mode. *)
let test_program =
  {
    Toolchain.prog_name = "abi-exerciser";
    prog_main =
      (fun env ->
        let open Mv_guest in
        let libc = Libc.create env in
        Libc.printf libc "hello pid=%d\n" (env.Env.getpid ());
        (* anonymous memory: map, touch, protect, barrier, unprotect *)
        let addr = env.Env.mmap ~len:8192 ~prot:Mv_ros.Mm.prot_rw ~kind:"test" in
        env.Env.store addr;
        env.Env.store (addr + 4096);
        let hits = ref 0 in
        env.Env.sigaction Mv_ros.Signal.Sigsegv
          (Mv_ros.Signal.Handler
             (fun info ->
               incr hits;
               env.Env.mprotect ~addr:(Mv_hw.Addr.align_down info.Mv_ros.Signal.si_addr)
                 ~len:4096 ~prot:Mv_ros.Mm.prot_rw));
        env.Env.mprotect ~addr ~len:4096 ~prot:Mv_ros.Mm.prot_r;
        env.Env.store addr;  (* write barrier fires *)
        Libc.printf libc "barrier hits=%d\n" !hits;
        (* files *)
        (match env.Env.open_ ~path:"/tmp/out.txt" ~flags:Mv_ros.Syscalls.[ O_WRONLY; O_CREAT ] with
        | Ok fd ->
            let data = Bytes.of_string "persisted" in
            ignore (env.Env.write ~fd ~buf:data ~off:0 ~len:(Bytes.length data));
            env.Env.close ~fd
        | Error _ -> Libc.printf libc "open failed\n");
        (match env.Env.stat ~path:"/tmp/out.txt" with
        | Ok st -> Libc.printf libc "size=%d\n" st.Mv_ros.Syscalls.st_size
        | Error _ -> Libc.printf libc "stat failed\n");
        (match env.Env.open_ ~path:"/tmp/out.txt" ~flags:Mv_ros.Syscalls.[ O_RDONLY ] with
        | Ok fd ->
            (match env.Env.fstat ~fd with
            | Ok st -> Libc.printf libc "fstat size=%d\n" st.Mv_ros.Syscalls.st_size
            | Error _ -> Libc.printf libc "fstat failed\n");
            Libc.printf libc "lseek=%d\n" (env.Env.lseek ~fd ~pos:3);
            let buf = Bytes.create 16 in
            let n = env.Env.read ~fd ~buf ~off:0 ~len:16 in
            Libc.printf libc "read=%s\n" (Bytes.sub_string buf 0 n);
            Libc.printf libc "poll ready=%d\n" (env.Env.poll ~fds:[ fd ] ~timeout_ms:0);
            env.Env.close ~fd
        | Error _ -> Libc.printf libc "reopen failed\n");
        Libc.printf libc "access=%b,%b\n"
          (env.Env.access_path ~path:"/tmp/out.txt")
          (env.Env.access_path ~path:"/tmp/missing");
        Libc.printf libc "cwd=%s\n" (env.Env.getcwd ());
        Libc.printf libc "uname=%s\n" (env.Env.uname ());
        (* signal mask, timers, scheduling, a plain read access *)
        env.Env.sigprocmask ~block:true Mv_ros.Signal.Sigusr1;
        env.Env.sigprocmask ~block:false Mv_ros.Signal.Sigusr1;
        env.Env.setitimer ~interval_us:1000;
        env.Env.nanosleep ~ns:1000.;
        env.Env.sched_yield ();
        env.Env.touch (addr + 4096);
        let ru = env.Env.getrusage () in
        Libc.printf libc "faults counted=%b\n" (ru.Mv_ros.Rusage.minflt > 0);
        env.Env.munmap ~addr ~len:8192;
        let t0 = env.Env.gettimeofday () in
        env.Env.work 22_000;
        let t1 = env.Env.gettimeofday () in
        Libc.printf libc "time advanced=%b\n" (t1 > t0);
        Libc.flush_all libc)
  }

let expected_stdout =
  "hello pid=1\nbarrier hits=1\nsize=9\nfstat size=9\nlseek=3\nread=sisted\npoll ready=1\n\
   access=true,false\ncwd=/\nuname=Linux mv-ros 2.6.38-rc5+ x86_64\nfaults counted=true\n\
   time advanced=true\n"

let test_native_run () =
  let rs = Toolchain.run_native test_program in
  check_string "stdout" expected_stdout rs.Toolchain.rs_stdout;
  check_int "exit code" 0 rs.Toolchain.rs_exit_code;
  check_bool "syscalls counted" true (Toolchain.total_syscalls rs > 5);
  check_bool "wall time positive" true (rs.Toolchain.rs_wall_cycles > 0)

let test_virtual_run () =
  let rs = Toolchain.run_virtual test_program in
  check_string "stdout" expected_stdout rs.Toolchain.rs_stdout;
  check_bool "vm exits happened" true (rs.Toolchain.rs_kernel.Mv_ros.Kernel.vm_exits > 0)

let test_multiverse_run () =
  let hx = Toolchain.hybridize test_program in
  let rs = Toolchain.run_multiverse hx in
  check_string "stdout identical to native" expected_stdout rs.Toolchain.rs_stdout;
  check_int "exit code" 0 rs.Toolchain.rs_exit_code;
  match rs.Toolchain.rs_runtime with
  | None -> Alcotest.fail "no runtime handle"
  | Some rt ->
      check_bool "at least one execution group" true (Runtime.groups_created rt >= 1);
      let nk = Runtime.nk rt in
      check_bool "hrt booted" true (Mv_aerokernel.Nautilus.booted nk);
      check_bool "syscalls were forwarded" true
        (Mv_aerokernel.Nautilus.stats_syscalls_forwarded nk > 5);
      check_bool "faults were forwarded" true
        (Mv_aerokernel.Nautilus.stats_faults_forwarded nk > 0)

(* The kernel-visible half of the transparency claim, over the whole
   syscall histogram: a virtual run counts exactly what the native run
   counts, and a Multiverse run adds only the runtime's own calls — one
   mmap/munmap pair per execution group (the ROS-side HRT stack) and one
   signal registration at init. *)
let check_syscalls_agree ~what rs_n rs_v rs_m =
  let groups =
    match rs_m.Toolchain.rs_runtime with
    | Some rt -> Runtime.groups_created rt
    | None -> Alcotest.fail "no runtime"
  in
  let runtime_own = function "mmap" | "munmap" -> groups | "rt_sigaction" -> 1 | _ -> 0 in
  let names =
    List.concat_map
      (fun rs -> List.map fst (H.to_sorted_list rs.Toolchain.rs_syscalls))
      [ rs_n; rs_v; rs_m ]
    |> List.sort_uniq String.compare
  in
  let counts ?(plus = fun _ -> 0) rs =
    List.map (fun name -> (name, H.count rs.Toolchain.rs_syscalls name + plus name)) names
  in
  let histogram = Alcotest.(list (pair string int)) in
  Alcotest.check histogram (what ^ ": virtual syscalls = native") (counts rs_n) (counts rs_v);
  Alcotest.check histogram
    (what ^ ": multiverse syscalls = native + the runtime's own")
    (counts ~plus:runtime_own rs_n) (counts rs_m)

let test_modes_agree () =
  (* The paper's core claim: the user sees no difference.  stdout and the
     kernel-visible syscall mix must match across all three modes. *)
  let rs_n = Toolchain.run_native test_program in
  let rs_v = Toolchain.run_virtual test_program in
  let hx = Toolchain.hybridize test_program in
  let rs_m = Toolchain.run_multiverse hx in
  check_string "native = virtual" rs_n.Toolchain.rs_stdout rs_v.Toolchain.rs_stdout;
  check_string "native = multiverse" rs_n.Toolchain.rs_stdout rs_m.Toolchain.rs_stdout;
  check_syscalls_agree ~what:"abi-exerciser" rs_n rs_v rs_m

let test_crossings_name_syscalls () =
  (* Every fabric crossing of a guest call is named after the system call
     it carries: in a traced run, each [fwd:NAME] span that is not one of
     the runtime's own [#...] kinds names a call the kernel counted, and
     every call the exerciser forwards shows up as a crossing. *)
  let hx = Toolchain.hybridize test_program in
  let rs = Toolchain.run_multiverse ~trace:true hx in
  let crossings =
    Mv_obs.Tracer.spans rs.Toolchain.rs_machine.Mv_engine.Machine.obs
    |> List.filter_map (fun sp ->
           let name = sp.Mv_obs.Tracer.sp_name in
           if sp.Mv_obs.Tracer.sp_cat = "crossing" && String.starts_with ~prefix:"fwd:" name
           then Some (String.sub name 4 (String.length name - 4))
           else None)
    |> List.sort_uniq String.compare
  in
  List.iter
    (fun name ->
      if name.[0] <> '#' then
        check_bool
          (Printf.sprintf "crossing fwd:%s names a counted syscall" name)
          true
          (H.count rs.Toolchain.rs_syscalls name > 0))
    crossings;
  List.iter
    (fun name ->
      check_bool (Printf.sprintf "%s crossed the fabric" name) true (List.mem name crossings))
    [
      "getpid"; "brk"; "mmap"; "rt_sigaction"; "mprotect"; "open"; "write"; "close"; "stat";
      "fstat"; "lseek"; "read"; "poll"; "access"; "getcwd"; "uname"; "rt_sigprocmask";
      "setitimer"; "nanosleep"; "sched_yield"; "getrusage"; "munmap"; "gettimeofday";
    ]

let fault_trace rs =
  Mv_engine.Trace.records_in rs.Toolchain.rs_machine.Mv_engine.Machine.trace
    ~category:"pagefault"
  |> List.map (fun r -> r.Mv_engine.Trace.message)

let test_fault_traces_identical () =
  (* Section 4.4: "if we collect a trace of page faults in the application
     running native and under Multiverse, the traces should look
     identical." *)
  let rs_n = Toolchain.run_native ~trace:true test_program in
  let hx = Toolchain.hybridize test_program in
  let rs_m = Toolchain.run_multiverse ~trace:true hx in
  let tn = fault_trace rs_n and tm = fault_trace rs_m in
  check_bool "trace nonempty" true (List.length tn > 0);
  Alcotest.(check (list string)) "fault traces identical" tn tm

let test_multiverse_slower_but_same_work () =
  let rs_n = Toolchain.run_native test_program in
  let hx = Toolchain.hybridize test_program in
  let rs_m = Toolchain.run_multiverse hx in
  check_bool "multiverse pays forwarding overhead" true
    (rs_m.Toolchain.rs_wall_cycles > rs_n.Toolchain.rs_wall_cycles)

let test_execve_disallowed () =
  let prog =
    {
      Toolchain.prog_name = "execve-attempt";
      prog_main =
        (fun env ->
          match env.Mv_guest.Env.execve ~path:"/bin/sh" with
          | Ok () | Error _ -> ());
    }
  in
  (* Fine natively... *)
  let rs = Toolchain.run_native prog in
  check_int "native exit" 0 rs.Toolchain.rs_exit_code;
  (* ...but prohibited in HRT context (Section 4.2). *)
  let hx = Toolchain.hybridize prog in
  match Toolchain.run_multiverse hx with
  | exception Runtime.Disallowed "execve" -> ()
  | _ -> Alcotest.fail "expected Disallowed"

let test_pthread_override_spawns_groups () =
  let prog =
    {
      Toolchain.prog_name = "threads";
      prog_main =
        (fun env ->
          let open Mv_guest in
          let libc = Libc.create env in
          let results = Array.make 3 0 in
          let mk i =
            env.Env.thread_create ~name:(Printf.sprintf "w%d" i) (fun () ->
                env.Env.work 10_000;
                results.(i) <- i + 1)
          in
          let handles = List.init 3 mk in
          List.iter (fun h -> env.Env.thread_join h) handles;
          Libc.printf libc "sum=%d\n" (Array.fold_left ( + ) 0 results);
          Libc.flush_all libc)
    }
  in
  let rs_n = Toolchain.run_native prog in
  check_string "native sum" "sum=6\n" rs_n.Toolchain.rs_stdout;
  check_bool "native used clone" true (H.count rs_n.Toolchain.rs_syscalls "clone" >= 3);
  let hx = Toolchain.hybridize prog in
  let rs_m = Toolchain.run_multiverse hx in
  check_string "multiverse sum" "sum=6\n" rs_m.Toolchain.rs_stdout;
  (match rs_m.Toolchain.rs_runtime with
  | Some rt ->
      check_bool "override created HRT groups (main + 3 workers)" true
        (Runtime.groups_created rt >= 4);
      check_bool "override wrappers ran" true (Runtime.overridden_calls rt >= 6)
  | None -> Alcotest.fail "no runtime");
  check_int "no clone forwarded under multiverse" 0
    (H.count rs_m.Toolchain.rs_syscalls "clone")

let test_accelerator_model () =
  (* Figure 4: a ROS main creates an HRT thread that calls an AeroKernel
     function directly and then printf()s through the merged address
     space. *)
  let seen = ref 0 in
  let rs =
    Toolchain.run_accelerator ~name:"accel-demo" (fun ~ros_env ~rt ->
        let nk = Runtime.nk rt in
        Mv_aerokernel.Nautilus.register_func nk ~name:"aerokernel_func" ~cost:250
          (fun () -> seen := 42);
        let libc = Mv_guest.Libc.create ros_env in
        let partner =
          Runtime.hrt_invoke rt ~name:"routine" (fun env ->
              Mv_aerokernel.Nautilus.call_func nk ~name:"aerokernel_func";
              let hrt_libc = Mv_guest.Libc.create env in
              Mv_guest.Libc.printf hrt_libc "Result = %d\n" !seen;
              Mv_guest.Libc.flush_all hrt_libc)
        in
        Runtime.join rt partner;
        Mv_guest.Libc.flush_all libc)
  in
  check_string "hrt printf reached ROS console" "Result = 42\n" rs.Toolchain.rs_stdout

let test_symbol_cache_ablation () =
  let prog =
    {
      Toolchain.prog_name = "override-heavy";
      prog_main =
        (fun env ->
          let handles =
            List.init 8 (fun i ->
                env.Mv_guest.Env.thread_create ~name:(Printf.sprintf "t%d" i) (fun () ->
                    env.Mv_guest.Env.work 1000))
          in
          List.iter (fun h -> env.Mv_guest.Env.thread_join h) handles)
    }
  in
  let hx = Toolchain.hybridize prog in
  let run cache =
    let options = { Toolchain.default_mv_options with mv_symbol_cache = cache } in
    let rs = Toolchain.run_multiverse ~options hx in
    match rs.Toolchain.rs_runtime with
    | Some rt -> (Symbols.lookups (Runtime.symbols rt), Symbols.cache_hits (Runtime.symbols rt))
    | None -> Alcotest.fail "no runtime"
  in
  let lookups_off, hits_off = run false in
  let lookups_on, hits_on = run true in
  check_int "no cache, no hits" 0 hits_off;
  check_bool "lookups happen either way" true (lookups_off > 0 && lookups_on > 0);
  check_bool "cache hits with cache on" true (hits_on > 0)

let test_channel_kinds () =
  let hx = Toolchain.hybridize test_program in
  let run kind =
    let options = { Toolchain.default_mv_options with mv_channel = kind } in
    Toolchain.run_multiverse ~options hx
  in
  let rs_async = run Mv_hvm.Event_channel.Async in
  let rs_sync = run Mv_hvm.Event_channel.Sync in
  check_string "sync channels produce identical behaviour"
    rs_async.Toolchain.rs_stdout rs_sync.Toolchain.rs_stdout;
  check_bool "sync channels are faster end-to-end" true
    (rs_sync.Toolchain.rs_wall_cycles < rs_async.Toolchain.rs_wall_cycles)

let test_porting_speeds_up () =
  let hx = Toolchain.hybridize test_program in
  let rs_none = Toolchain.run_multiverse hx in
  let options =
    { Toolchain.default_mv_options with mv_porting = Runtime.full_porting }
  in
  let rs_full = Toolchain.run_multiverse ~options hx in
  check_string "ported run behaves identically" rs_none.Toolchain.rs_stdout
    rs_full.Toolchain.rs_stdout;
  check_bool "porting reduces wall time" true
    (rs_full.Toolchain.rs_wall_cycles < rs_none.Toolchain.rs_wall_cycles);
  match rs_full.Toolchain.rs_runtime with
  | Some rt -> check_bool "faults served locally" true (Runtime.faults_serviced_locally rt > 0)
  | None -> Alcotest.fail "no runtime"

(* A SIGSEGV that arrives while the guest blocks it skips the handler and
   kills the process, whichever side the fault is served on: forwarded to
   the ROS (no porting) or served HRT-local under the HRT-side mask (full
   porting).  Unblocked, the handler runs as it does natively. *)
let masked_segv_program ~unblock =
  {
    Toolchain.prog_name = "masked-segv";
    prog_main =
      (fun env ->
        let open Mv_guest in
        let libc = Libc.create env in
        let addr = env.Env.mmap ~len:4096 ~prot:Mv_ros.Mm.prot_rw ~kind:"test" in
        env.Env.store addr;
        let hits = ref 0 in
        env.Env.sigaction Mv_ros.Signal.Sigsegv
          (Mv_ros.Signal.Handler
             (fun info ->
               incr hits;
               env.Env.mprotect ~addr:(Mv_hw.Addr.align_down info.Mv_ros.Signal.si_addr)
                 ~len:4096 ~prot:Mv_ros.Mm.prot_rw));
        env.Env.mprotect ~addr ~len:4096 ~prot:Mv_ros.Mm.prot_r;
        env.Env.sigprocmask ~block:true Mv_ros.Signal.Sigsegv;
        if unblock then env.Env.sigprocmask ~block:false Mv_ros.Signal.Sigsegv;
        Libc.printf libc "before\n";
        Libc.flush_all libc;
        env.Env.store addr;
        Libc.printf libc "after hits=%d\n" !hits;
        Libc.flush_all libc);
  }

let test_blocked_segv_kills () =
  let full = { Toolchain.default_mv_options with mv_porting = Runtime.full_porting } in
  List.iter
    (fun unblock ->
      let prog = masked_segv_program ~unblock in
      let hx = Toolchain.hybridize prog in
      let stdout, code = if unblock then ("before\nafter hits=1\n", 0) else ("before\n", 139) in
      List.iter
        (fun (what, rs) ->
          let what = Printf.sprintf "%s, %s" what (if unblock then "unblocked" else "blocked") in
          check_string (what ^ ": stdout") stdout rs.Toolchain.rs_stdout;
          check_int (what ^ ": exit code") code rs.Toolchain.rs_exit_code)
        [
          ("native", Toolchain.run_native prog);
          ("multiverse", Toolchain.run_multiverse hx);
          ("multiverse, full porting", Toolchain.run_multiverse ~options:full hx);
        ])
    [ false; true ]

let test_ported_calls_run_overrides () =
  (* Under full porting, every ported call made from HRT context goes
     through its AeroKernel override wrapper exactly once. *)
  let options = { Toolchain.default_mv_options with mv_porting = Runtime.full_porting } in
  let steps = ref [] in
  ignore
    (Toolchain.run_accelerator ~options ~name:"ported" (fun ~ros_env:_ ~rt ->
         let partner =
           Runtime.hrt_invoke rt ~name:"hrt" (fun env ->
               let open Mv_guest.Env in
               let step name f =
                 let before = Runtime.overridden_calls rt in
                 f ();
                 steps := (name, Runtime.overridden_calls rt - before) :: !steps
               in
               let addr = ref 0 in
               step "mmap" (fun () ->
                   addr := env.mmap ~len:8192 ~prot:Mv_ros.Mm.prot_rw ~kind:"test");
               step "mprotect" (fun () ->
                   env.mprotect ~addr:!addr ~len:4096 ~prot:Mv_ros.Mm.prot_r);
               step "munmap" (fun () -> env.munmap ~addr:!addr ~len:8192);
               step "sigaction" (fun () ->
                   env.sigaction Mv_ros.Signal.Sigusr1 Mv_ros.Signal.Ignore);
               step "sigprocmask" (fun () -> env.sigprocmask ~block:true Mv_ros.Signal.Sigusr1))
         in
         Runtime.join rt partner));
  Alcotest.(check (list (pair string int)))
    "one override per ported call"
    [ ("mmap", 1); ("mprotect", 1); ("munmap", 1); ("sigaction", 1); ("sigprocmask", 1) ]
    (List.rev !steps)

let test_stdin_roundtrip () =
  let prog =
    {
      Toolchain.prog_name = "echo";
      prog_main =
        (fun env ->
          let libc = Mv_guest.Libc.create env in
          let rec loop () =
            match Mv_guest.Libc.stdin_gets libc with
            | Some line ->
                Mv_guest.Libc.printf libc "> %s" line;
                loop ()
            | None -> ()
          in
          loop ();
          Mv_guest.Libc.flush_all libc)
    }
  in
  let input = "one\ntwo\n" in
  let rs_n = Toolchain.run_native ~stdin:input prog in
  check_string "echoed" "> one\n> two\n" rs_n.Toolchain.rs_stdout;
  let rs_m = Toolchain.run_multiverse ~stdin:input (Toolchain.hybridize prog) in
  check_string "echoed via forwarded read" "> one\n> two\n" rs_m.Toolchain.rs_stdout

let test_nested_hrt_threads () =
  (* Figure 7: a top-level HRT thread creates nested AeroKernel threads
     whose events flow through the top-level thread's partner. *)
  let order = ref [] in
  let rs =
    Toolchain.run_accelerator ~name:"nested" (fun ~ros_env:_ ~rt ->
        let partner =
          Runtime.hrt_invoke rt ~name:"top" (fun env ->
              let libc = Mv_guest.Libc.create env in
              let nested =
                List.init 3 (fun i ->
                    Runtime.create_nested rt ~name:(Printf.sprintf "nested-%d" i)
                      (fun () ->
                        (* Nested threads can use forwarded services: this
                           write goes through the top-level partner. *)
                        Mv_guest.Libc.printf libc "nested %d\n" i;
                        Mv_guest.Libc.flush_all libc;
                        order := i :: !order))
              in
              List.iter (fun th -> Runtime.join_nested rt th) nested;
              Mv_guest.Libc.printf libc "top done\n";
              Mv_guest.Libc.flush_all libc)
        in
        Runtime.join rt partner)
  in
  check_int "all nested ran" 3 (List.length !order);
  check_bool "nested output arrived" true
    (let lines = String.split_on_char '\n' rs.Toolchain.rs_stdout in
     List.mem "nested 0" lines && List.mem "top done" lines);
  (match rs.Toolchain.rs_runtime with
  | Some rt ->
      (* Only ONE execution group: nested threads have no partners. *)
      check_int "one group" 1 (Runtime.groups_created rt);
      check_bool "nested are AeroKernel threads" true
        (Mv_aerokernel.Nautilus.thread_count (Runtime.nk rt) >= 4)
  | None -> Alcotest.fail "no runtime")

let test_nested_outside_hrt_rejected () =
  let failed = ref false in
  ignore
    (Toolchain.run_accelerator ~name:"nested-bad" (fun ~ros_env:_ ~rt ->
         match Runtime.create_nested rt ~name:"x" (fun () -> ()) with
         | _ -> ()
         | exception Failure _ -> failed := true));
  check_bool "create_nested from ROS context rejected" true !failed

let suite =
  [
    ("native run of ABI exerciser", `Quick, test_native_run);
    ("virtual run (vm exits)", `Quick, test_virtual_run);
    ("multiverse run (forwarding)", `Quick, test_multiverse_run);
    ("all modes behave identically", `Quick, test_modes_agree);
    ("crossings name the syscalls they carry", `Quick, test_crossings_name_syscalls);
    ("page-fault traces identical", `Quick, test_fault_traces_identical);
    ("multiverse pays forwarding overhead", `Quick, test_multiverse_slower_but_same_work);
    ("execve disallowed in HRT", `Quick, test_execve_disallowed);
    ("pthread override spawns execution groups", `Quick, test_pthread_override_spawns_groups);
    ("accelerator model (Figure 4)", `Quick, test_accelerator_model);
    ("symbol cache ablation hooks", `Quick, test_symbol_cache_ablation);
    ("sync vs async channels", `Quick, test_channel_kinds);
    ("incremental porting speeds up", `Quick, test_porting_speeds_up);
    ("ported calls run their overrides", `Quick, test_ported_calls_run_overrides);
    ("a blocked SIGSEGV kills in every mode", `Quick, test_blocked_segv_kills);
    ("stdin via forwarded read", `Quick, test_stdin_roundtrip);
    ("nested HRT threads (Figure 7)", `Quick, test_nested_hrt_threads);
    ("nested creation outside HRT rejected", `Quick, test_nested_outside_hrt_rejected);
  ]
