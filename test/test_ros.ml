(* Tests for the ROS (Linux-like) kernel substrate: VFS, address spaces,
   system calls, signals, the libc layer, and process accounting. *)

module Machine = Mv_engine.Machine
module Sim = Mv_engine.Sim
module Exec = Mv_engine.Exec
open Mv_ros

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* --- Vfs (pure) --- *)

let test_vfs_paths () =
  let fs = Vfs.create () in
  Vfs.add_file fs ~path:"/etc/hosts" "localhost";
  Vfs.mkdir_p fs "/a/b/c";
  check_bool "file resolves" true (Vfs.resolve fs ~cwd:"/" "/etc/hosts" <> None);
  check_bool "relative path" true (Vfs.resolve fs ~cwd:"/etc" "hosts" <> None);
  check_bool "dotdot" true (Vfs.resolve fs ~cwd:"/a/b" "../b/c" <> None);
  check_bool "missing" true (Vfs.resolve fs ~cwd:"/" "/nope" = None);
  check_bool "dev null exists" true (Vfs.resolve fs ~cwd:"/" "/dev/null" = Some Vfs.Dev_null);
  check_bool "remove" true (Vfs.remove fs ~path:"/etc/hosts");
  check_bool "gone" true (Vfs.resolve fs ~cwd:"/" "/etc/hosts" = None)

let test_vfs_file_rw () =
  let fs = Vfs.create () in
  Vfs.add_file fs ~path:"/tmp/x" "";
  match Vfs.resolve fs ~cwd:"/" "/tmp/x" with
  | Some (Vfs.File f) ->
      let data = Bytes.of_string "hello world" in
      ignore (Vfs.file_write f ~pos:0 ~buf:data ~off:0 ~len:11);
      check_string "contents" "hello world" (Vfs.file_contents f);
      let buf = Bytes.create 5 in
      let n = Vfs.file_read f ~pos:6 ~buf ~off:0 ~len:5 in
      check_int "read len" 5 n;
      check_string "read data" "world" (Bytes.to_string buf);
      (* Sparse write past the end zero-fills. *)
      ignore (Vfs.file_write f ~pos:20 ~buf:data ~off:0 ~len:5);
      check_int "size extended" 25 f.Vfs.size
  | _ -> Alcotest.fail "no file"

let test_vfs_stream () =
  let s = Vfs.stream_in () in
  let buf = Bytes.create 16 in
  check_bool "empty would block" true (Vfs.stream_read s ~buf ~off:0 ~len:16 = `Would_block);
  let fired = ref 0 in
  Vfs.stream_on_data s (fun () -> incr fired);
  Vfs.feed s "abc";
  check_int "waiter fired" 1 !fired;
  (match Vfs.stream_read s ~buf ~off:0 ~len:16 with
  | `Data 3 -> check_string "data" "abc" (Bytes.sub_string buf 0 3)
  | _ -> Alcotest.fail "expected 3 bytes");
  Vfs.close_stream s;
  check_bool "eof after close" true (Vfs.stream_read s ~buf ~off:0 ~len:16 = `Eof)

(* --- kernel fixtures --- *)

let with_proc f =
  let machine = Machine.create () in
  let k = Kernel.create machine in
  let result = ref None in
  let p = Kernel.spawn_process k ~name:"test" (fun p -> result := Some (f machine k p)) in
  Sim.run machine.Machine.sim;
  check_bool "process exited" true p.Process.exited;
  match !result with Some r -> r | None -> Alcotest.fail "process body did not run"

let test_mm_demand_paging () =
  with_proc (fun machine k p ->
      let before = p.Process.rusage.Rusage.minflt in
      let addr = Mm.mmap p.Process.mm ~len:(16 * 4096) ~prot:Mm.prot_rw ~kind:"t" in
      check_bool "nothing resident yet" true (not (Mm.is_resident p.Process.mm addr));
      Kernel.access k addr ~write:true;
      Kernel.access k (addr + 4096) ~write:true;
      Kernel.access k addr ~write:true (* no second fault *);
      check_int "two minor faults" (before + 2) p.Process.rusage.Rusage.minflt;
      check_bool "resident now" true (Mm.is_resident p.Process.mm addr);
      check_int "rss 8KB" 8 (Mm.rss_kb p.Process.mm);
      ignore machine)

let test_mm_zero_page_cow () =
  with_proc (fun machine k p ->
      let addr = Mm.mmap p.Process.mm ~len:4096 ~prot:Mm.prot_rw ~kind:"t" in
      (* First read maps the shared zero frame... *)
      Kernel.access k addr ~write:false;
      check_bool "resident after read" true (Mm.is_resident p.Process.mm addr);
      let ru = p.Process.rusage.Rusage.minflt in
      (* ...and the first write breaks COW with another minor fault. *)
      Kernel.access k addr ~write:true;
      check_int "cow fault" (ru + 1) p.Process.rusage.Rusage.minflt;
      ignore machine)

let test_mm_protection_signal () =
  with_proc (fun _machine k p ->
      let addr = Mm.mmap p.Process.mm ~len:4096 ~prot:Mm.prot_rw ~kind:"t" in
      Kernel.access k addr ~write:true;
      ignore (Mm.mprotect p.Process.mm addr ~len:4096 Mm.prot_r);
      let hits = ref 0 in
      Signal.set_action p.Process.signals Signal.Sigsegv
        (Signal.Handler
           (fun info ->
             incr hits;
             check_bool "write fault" true info.Signal.si_write;
             ignore
               (Mm.mprotect p.Process.mm
                  (Mv_hw.Addr.align_down info.Signal.si_addr)
                  ~len:4096 Mm.prot_rw)));
      Kernel.access k addr ~write:true;
      check_int "barrier fired once" 1 !hits;
      Kernel.access k addr ~write:true;
      check_int "no second fault" 1 !hits)

(* A write to a read-only page while SIGSEGV is blocked: the fault cannot
   wait in the mask, so the handler is skipped and the process dies with
   the default action; once unblocked, the handler runs again. *)
let test_blocked_segv_kills () =
  let run ~unblock =
    let machine = Machine.create () in
    let k = Kernel.create machine in
    let hits = ref 0 and survived = ref false in
    let p =
      Kernel.spawn_process k ~name:"masked" (fun p ->
          let addr = Mm.mmap p.Process.mm ~len:4096 ~prot:Mm.prot_rw ~kind:"t" in
          Kernel.access k addr ~write:true;
          Syscalls.rt_sigaction k p ~signo:Signal.Sigsegv
            ~handler:
              (Signal.Handler
                 (fun info ->
                   incr hits;
                   ignore
                     (Mm.mprotect p.Process.mm
                        (Mv_hw.Addr.align_down info.Signal.si_addr)
                        ~len:4096 Mm.prot_rw)));
          ignore (Mm.mprotect p.Process.mm addr ~len:4096 Mm.prot_r);
          Syscalls.rt_sigprocmask k p ~block:true ~signo:Signal.Sigsegv;
          if unblock then Syscalls.rt_sigprocmask k p ~block:false ~signo:Signal.Sigsegv;
          Kernel.access k addr ~write:true;
          survived := true)
    in
    Sim.run machine.Machine.sim;
    (p, !hits, !survived)
  in
  let p, hits, survived = run ~unblock:false in
  check_int "blocked: the handler never ran" 0 hits;
  check_bool "blocked: the write did not complete" false survived;
  check_int "blocked: killed by SIGSEGV" 139 p.Process.exit_code;
  let p, hits, survived = run ~unblock:true in
  check_int "unblocked: the handler ran" 1 hits;
  check_bool "unblocked: the write completed" true survived;
  check_int "unblocked: clean exit" 0 p.Process.exit_code

let test_mm_unmapped_kills () =
  let machine = Machine.create () in
  let k = Kernel.create machine in
  let p =
    Kernel.spawn_process k ~name:"segv" (fun _p ->
        Kernel.access k 0xdead000 ~write:true)
  in
  Sim.run machine.Machine.sim;
  check_bool "killed" true p.Process.exited;
  check_int "signal exit code" 139 p.Process.exit_code

let test_mm_split_vma () =
  with_proc (fun _machine k p ->
      let mm = p.Process.mm in
      let addr = Mm.mmap mm ~len:(10 * 4096) ~prot:Mm.prot_rw ~kind:"t" in
      let vmas0 = Mm.vma_count mm in
      (* Unmap the middle two pages: the VMA splits in three minus one. *)
      Kernel.access k (addr + (4 * 4096)) ~write:true;
      let freed = Mm.munmap mm (addr + (4 * 4096)) ~len:(2 * 4096) in
      check_int "one resident page freed" 1 freed;
      check_int "vma split" (vmas0 + 1) (Mm.vma_count mm);
      check_bool "hole unmapped" true (Mm.find_vma mm (addr + (4 * 4096)) = None);
      check_bool "left intact" true (Mm.find_vma mm addr <> None);
      check_bool "right intact" true (Mm.find_vma mm (addr + (9 * 4096)) <> None))

let test_brk () =
  with_proc (fun _machine k p ->
      let mm = p.Process.mm in
      let base = Mm.brk mm None in
      let nb = Mm.brk mm (Some (base + 65536)) in
      check_int "brk grew" (base + 65536) nb;
      Kernel.access k base ~write:true;
      check_bool "heap accessible" true (Mm.is_resident mm base);
      let back = Mm.brk mm (Some base) in
      check_int "brk shrank" base back;
      ignore k)

(* --- syscalls --- *)

let test_syscall_file_io () =
  with_proc (fun _machine k p ->
      (match Syscalls.openat k p ~path:"/tmp/f" ~flags:[ Syscalls.O_WRONLY; Syscalls.O_CREAT ] with
      | Ok fd ->
          let data = Bytes.of_string "hello" in
          (match Syscalls.write k p ~fd ~buf:data ~off:0 ~len:5 with
          | Ok 5 -> ()
          | _ -> Alcotest.fail "write");
          ignore (Syscalls.close k p ~fd)
      | Error _ -> Alcotest.fail "open for write");
      (match Syscalls.stat k p ~path:"/tmp/f" with
      | Ok st -> check_int "size" 5 st.Syscalls.st_size
      | Error _ -> Alcotest.fail "stat");
      (match Syscalls.openat k p ~path:"/tmp/f" ~flags:[ Syscalls.O_RDONLY ] with
      | Ok fd ->
          let buf = Bytes.create 16 in
          (match Syscalls.read k p ~fd ~buf ~off:0 ~len:16 with
          | Ok 5 -> check_string "roundtrip" "hello" (Bytes.sub_string buf 0 5)
          | _ -> Alcotest.fail "read");
          ignore (Syscalls.close k p ~fd)
      | Error _ -> Alcotest.fail "open for read");
      (match Syscalls.openat k p ~path:"/absent" ~flags:[ Syscalls.O_RDONLY ] with
      | Error Syscalls.ENOENT -> ()
      | _ -> Alcotest.fail "expected ENOENT");
      match Syscalls.read k p ~fd:99 ~buf:(Bytes.create 1) ~off:0 ~len:1 with
      | Error Syscalls.EBADF -> ()
      | _ -> Alcotest.fail "expected EBADF")

let test_syscall_counting () =
  with_proc (fun _machine k p ->
      ignore (Syscalls.getpid k p);
      ignore (Syscalls.gettimeofday k p);
      ignore (Syscalls.gettimeofday k p);
      ignore (Syscalls.getcwd k p);
      let h = p.Process.syscall_counts in
      check_int "getpid" 1 (Mv_util.Histogram.count h "getpid");
      check_int "gettimeofday" 2 (Mv_util.Histogram.count h "gettimeofday");
      check_int "getcwd" 1 (Mv_util.Histogram.count h "getcwd"))

let test_gettimeofday_advances () =
  with_proc (fun machine k p ->
      let t0 = Syscalls.gettimeofday k p in
      Machine.charge machine (Mv_util.Cycles.of_ms 5.0);
      let t1 = Syscalls.gettimeofday k p in
      Alcotest.(check bool) "clock advanced ~5ms" true (t1 -. t0 >= 0.004 && t1 -. t0 < 0.05))

let test_exit_group_kills () =
  let machine = Machine.create () in
  let k = Kernel.create machine in
  let after = ref false in
  let p =
    Kernel.spawn_process k ~name:"exiter" (fun p ->
        Syscalls.exit_group k p ~code:7;
        after := true)
  in
  Sim.run machine.Machine.sim;
  check_int "exit code" 7 p.Process.exit_code;
  check_bool "no code after exit" false !after

let test_futex () =
  let machine = Machine.create () in
  let k = Kernel.create machine in
  let woke = ref 0 in
  ignore
    (Kernel.spawn_process k ~name:"futex" (fun p ->
         let th =
           Kernel.spawn_thread k p ~name:"waiter" (fun () ->
               Syscalls.futex_wait k p ~uaddr:0x1000;
               incr woke)
         in
         (* Give the waiter a chance to park, then wake it. *)
         Exec.sleep machine.Machine.exec (Mv_util.Cycles.of_us 10.);
         let n = Syscalls.futex_wake k p ~uaddr:0x1000 ~all:false in
         check_int "one woken" 1 n;
         Exec.join machine.Machine.exec th))
  |> ignore;
  Sim.run machine.Machine.sim;
  check_int "waiter resumed" 1 !woke

let test_poll_timeout () =
  with_proc (fun machine k p ->
      let t0 = Machine.now machine in
      let n = Syscalls.poll k p ~fds:[ 0 ] ~timeout_ms:2 in
      check_int "nothing ready" 0 n;
      check_bool "waited ~2ms" true (Machine.now machine - t0 >= Mv_util.Cycles.of_ms 1.9))

let test_rusage_accounting () =
  with_proc (fun machine k p ->
      Machine.charge machine 10_000;  (* user work *)
      ignore (Syscalls.getrusage k p);
      let ru = p.Process.rusage in
      check_bool "utime counted" true (ru.Rusage.utime >= 10_000);
      check_bool "stime counted" true (ru.Rusage.stime > 0);
      check_bool "rss tracked" true (ru.Rusage.maxrss_kb >= 0);
      ignore k)

(* Exact attribution: each charge lands in the charging thread's process,
   in stime inside [in_sys] (at any depth) and in utime outside it. *)
let test_rusage_exact_split () =
  let machine = Machine.create () in
  let k = Kernel.create machine in
  let body user p =
    let ru = p.Process.rusage in
    let u0 = ru.Rusage.utime and s0 = ru.Rusage.stime in
    let expect what du ds =
      check_int (p.Process.pname ^ ": utime " ^ what) (u0 + du) ru.Rusage.utime;
      check_int (p.Process.pname ^ ": stime " ^ what) (s0 + ds) ru.Rusage.stime
    in
    Machine.charge machine user;
    expect "after a user charge" user 0;
    Kernel.in_sys k (fun () ->
        Machine.charge machine 300;
        Kernel.in_sys k (fun () -> Machine.charge machine 200);
        Machine.charge machine 100);
    expect "after nested in_sys" user 600;
    (match
       Kernel.in_sys k (fun () ->
           Machine.charge machine 50;
           failwith "escapes")
     with
    | () -> Alcotest.fail "in_sys swallowed the exception"
    | exception Failure _ -> ());
    expect "after the exception" user 650;
    Machine.charge machine 7;
    expect "after the exception, charged again" (user + 7) 650
  in
  (* Threads the kernel never registered charge nobody, in or out of
     in_sys.  There are enough of them that the processes' tids lie past
     the kernel's initial per-thread arrays. *)
  let strays =
    List.init 70 (fun i ->
        Exec.spawn machine.Machine.exec ~cpu:0 ~name:(Printf.sprintf "stray%d" i) (fun () ->
            Machine.charge machine 1_000;
            Kernel.in_sys k (fun () -> Machine.charge machine 1_000);
            check_bool "stray is no ROS task" true
              (match Kernel.current k with _ -> false | exception Failure _ -> true)))
  in
  let p1 = Kernel.spawn_process k ~name:"a" (body 1_000) in
  let p2 = Kernel.spawn_process k ~name:"b" (body 20_000) in
  Sim.run machine.Machine.sim;
  check_bool "strays finished" true
    (List.for_all (fun th -> Exec.state machine.Machine.exec th = Exec.Finished) strays);
  check_int "a: utime is a's charges" 1_007 p1.Process.rusage.Rusage.utime;
  check_int "a: stime is a's charges" 650 p1.Process.rusage.Rusage.stime;
  check_int "b: utime is b's charges" 20_007 p2.Process.rusage.Rusage.utime;
  check_int "b: stime is b's charges" 650 p2.Process.rusage.Rusage.stime

(* --- libc --- *)

let test_libc_buffered_stdio () =
  let machine = Machine.create () in
  let k = Kernel.create machine in
  let p =
    Kernel.spawn_process k ~name:"stdio" (fun p ->
        let env = Mv_guest.Env.native k p in
        let libc = Mv_guest.Libc.create env in
        (* Small writes coalesce into one syscall at flush. *)
        for _ = 1 to 100 do
          Mv_guest.Libc.printf libc "x"
        done;
        Mv_guest.Libc.flush_all libc)
  in
  Sim.run machine.Machine.sim;
  check_int "one hundred chars" 100 (String.length (Process.stdout_contents p));
  check_int "single write syscall" 1
    (Mv_util.Histogram.count p.Process.syscall_counts "write")

let test_libc_buffer_flush_at_4k () =
  let machine = Machine.create () in
  let k = Kernel.create machine in
  let p =
    Kernel.spawn_process k ~name:"stdio4k" (fun p ->
        let env = Mv_guest.Env.native k p in
        let libc = Mv_guest.Libc.create env in
        (* 10000 bytes: two automatic 4 KiB+ flushes plus the final one. *)
        for _ = 1 to 100 do
          Mv_guest.Libc.fwrite libc (Mv_guest.Libc.stdout_stream libc) (String.make 100 'y')
        done;
        Mv_guest.Libc.flush_all libc)
  in
  Sim.run machine.Machine.sim;
  check_int "all bytes out" 10_000 (String.length (Process.stdout_contents p));
  check_int "three writes" 3 (Mv_util.Histogram.count p.Process.syscall_counts "write")

let test_libc_malloc () =
  with_proc (fun _machine k p ->
      let env = Mv_guest.Env.native k p in
      let libc = Mv_guest.Libc.create env in
      let a = Mv_guest.Libc.malloc libc 64 in
      let b = Mv_guest.Libc.malloc libc 64 in
      check_bool "distinct blocks" true (a <> b);
      Mv_guest.Libc.free libc a;
      let c = Mv_guest.Libc.malloc libc 64 in
      check_int "free list reuse" a c;
      (* Large allocations go to mmap and munmap on free. *)
      let before = Mv_util.Histogram.count p.Process.syscall_counts "mmap" in
      let big = Mv_guest.Libc.malloc libc (512 * 1024) in
      check_int "mmap used" (before + 1) (Mv_util.Histogram.count p.Process.syscall_counts "mmap");
      Mv_guest.Libc.free libc big;
      check_bool "munmap on free" true
        (Mv_util.Histogram.count p.Process.syscall_counts "munmap" >= 1);
      check_int "live bytes balanced" 64 (Mv_guest.Libc.malloc_live_bytes libc - 64))

let test_thread_rusage_aggregation () =
  let machine = Machine.create () in
  let k = Kernel.create machine in
  let p =
    Kernel.spawn_process k ~name:"mt" (fun p ->
        let env = Mv_guest.Env.native k p in
        let ths =
          List.init 3 (fun i ->
              env.Mv_guest.Env.thread_create ~name:(Printf.sprintf "w%d" i) (fun () ->
                  Machine.charge machine 50_000))
        in
        List.iter (fun th -> env.Mv_guest.Env.thread_join th) ths)
  in
  Sim.run machine.Machine.sim;
  let ru = p.Process.rusage in
  check_bool "worker time aggregated" true (ru.Rusage.utime >= 150_000);
  check_bool "voluntary switches recorded" true (ru.Rusage.nvcsw > 0)

let suite =
  [
    ("vfs: path resolution", `Quick, test_vfs_paths);
    ("vfs: file read/write", `Quick, test_vfs_file_rw);
    ("vfs: input streams", `Quick, test_vfs_stream);
    ("mm: demand paging", `Quick, test_mm_demand_paging);
    ("mm: zero-page COW", `Quick, test_mm_zero_page_cow);
    ("mm: mprotect drives SIGSEGV barrier", `Quick, test_mm_protection_signal);
    ("mm: unmapped access kills", `Quick, test_mm_unmapped_kills);
    ("signals: a blocked SIGSEGV kills", `Quick, test_blocked_segv_kills);
    ("mm: VMA splitting", `Quick, test_mm_split_vma);
    ("mm: brk", `Quick, test_brk);
    ("syscalls: file I/O + errno", `Quick, test_syscall_file_io);
    ("syscalls: counting", `Quick, test_syscall_counting);
    ("syscalls: gettimeofday tracks virtual clock", `Quick, test_gettimeofday_advances);
    ("syscalls: exit_group", `Quick, test_exit_group_kills);
    ("syscalls: futex wait/wake", `Quick, test_futex);
    ("syscalls: poll timeout", `Quick, test_poll_timeout);
    ("rusage: user/sys accounting", `Quick, test_rusage_accounting);
    ("rusage: exact user/sys split per process", `Quick, test_rusage_exact_split);
    ("libc: buffered stdio", `Quick, test_libc_buffered_stdio);
    ("libc: flush at 4KiB", `Quick, test_libc_buffer_flush_at_4k);
    ("libc: malloc/free", `Quick, test_libc_malloc);
    ("rusage: multi-thread aggregation", `Quick, test_thread_rusage_aggregation);
  ]
