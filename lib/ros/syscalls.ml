module Machine = Mv_engine.Machine
module Exec = Mv_engine.Exec
module Sim = Mv_engine.Sim

type errno = ENOENT | EBADF | EINVAL | ENOSYS | ENOTDIR | EAGAIN

let errno_name = function
  | ENOENT -> "ENOENT"
  | EBADF -> "EBADF"
  | EINVAL -> "EINVAL"
  | ENOSYS -> "ENOSYS"
  | ENOTDIR -> "ENOTDIR"
  | EAGAIN -> "EAGAIN"

type stat_info = { st_size : int; st_is_dir : bool }

type open_flag = O_RDONLY | O_WRONLY | O_RDWR | O_CREAT | O_TRUNC | O_APPEND

(* Handler-side base costs, in cycles.  Copies charge [per_kb] extra. *)
let c_open = 1_400
let c_close = 450
let c_read = 650
let c_write = 700
let c_stat = 900
let c_lseek = 300
let c_access = 750
let c_getcwd = 500
let c_mmap = 950
let c_munmap = 900
let c_mprotect = 750
let c_brk = 550
let c_sigaction = 600
let c_sigprocmask = 380
let c_getrusage = 950
let c_setitimer = 600
let c_nanosleep = 700
let c_poll = 800
let c_uname = 420
let c_sched_yield = 400
let c_futex = 900
let c_exit = 1_500
let per_kb = 150
let per_page_teardown = 120
let per_page_protect = 60

let enter k p name base =
  Kernel.count_syscall k p name;
  Kernel.in_sys k (fun () -> Machine.charge k.Kernel.machine base)

let sys k f = Kernel.in_sys k f

let copy_cost len = per_kb * len / 1024

(* --- file I/O --- *)

let openat k p ~path ~flags =
  enter k p "open" c_open;
  let creating = List.mem O_CREAT flags in
  match Vfs.resolve k.Kernel.vfs ~cwd:p.Process.cwd path with
  | Some node -> (
      (match (node, List.mem O_TRUNC flags) with
      | Vfs.File f, true ->
          f.Vfs.size <- 0
      | _ -> ());
      match node with
      | Vfs.Dir _ when List.mem O_WRONLY flags || List.mem O_RDWR flags -> Error ENOTDIR
      | _ -> Ok (Process.alloc_fd p node ~path))
  | None ->
      if creating then begin
        Vfs.add_file k.Kernel.vfs ~path "";
        match Vfs.resolve k.Kernel.vfs ~cwd:p.Process.cwd path with
        | Some node -> Ok (Process.alloc_fd p node ~path)
        | None -> Error ENOENT
      end
      else Error ENOENT

let close k p ~fd =
  enter k p "close" c_close;
  if Process.close_fd p fd then Ok () else Error EBADF

let read k p ~fd ~buf ~off ~len =
  enter k p "read" c_read;
  match Process.fd p fd with
  | None -> Error EBADF
  | Some entry -> (
      match entry.Process.node with
      | Vfs.File f ->
          let n =
            Vfs.file_read f ~pos:entry.Process.pos ~buf ~off ~len
          in
          entry.Process.pos <- entry.Process.pos + n;
          sys k (fun () -> Machine.charge k.Kernel.machine (copy_cost n));
          Ok n
      | Vfs.Dev_zero ->
          Bytes.fill buf off len '\000';
          sys k (fun () -> Machine.charge k.Kernel.machine (copy_cost len));
          Ok len
      | Vfs.Dev_null -> Ok 0
      | Vfs.Dir _ | Vfs.Console_out _ -> Error EBADF
      | Vfs.Console_in stream -> (
          let rec attempt () =
            match Vfs.stream_read stream ~buf ~off ~len with
            | `Data n ->
                sys k (fun () -> Machine.charge k.Kernel.machine (copy_cost n));
                Ok n
            | `Eof -> Ok 0
            | `Would_block ->
                (* Block the calling thread until input arrives. *)
                Exec.block k.Kernel.machine.Machine.exec ~reason:"read(stdin)"
                  (fun ~now:_ ~wake -> Vfs.stream_on_data stream (fun () -> wake ()));
                attempt ()
          in
          attempt ()))

let console_exit_cost k =
  (* Console output from a virtualized ROS exits to the VMM (virtio). *)
  if k.Kernel.virtualized then begin
    k.Kernel.vm_exits <- k.Kernel.vm_exits + 1;
    k.Kernel.machine.Machine.costs.Mv_hw.Costs.vm_exit
  end
  else 0

let write k p ~fd ~buf ~off ~len =
  enter k p "write" c_write;
  match Process.fd p fd with
  | None -> Error EBADF
  | Some entry -> (
      match entry.Process.node with
      | Vfs.File f ->
          let n = Vfs.file_write f ~pos:entry.Process.pos ~buf ~off ~len in
          entry.Process.pos <- entry.Process.pos + n;
          sys k (fun () -> Machine.charge k.Kernel.machine (copy_cost n));
          Ok n
      | Vfs.Dev_null | Vfs.Dev_zero -> Ok len
      | Vfs.Console_out (capture, tee) ->
          let s = Bytes.sub_string buf off len in
          Buffer.add_string capture s;
          tee s;
          sys k (fun () ->
              Machine.charge k.Kernel.machine (copy_cost len + console_exit_cost k));
          Ok len
      | Vfs.Dir _ | Vfs.Console_in _ -> Error EBADF)

let stat k p ~path =
  enter k p "stat" c_stat;
  match Vfs.resolve k.Kernel.vfs ~cwd:p.Process.cwd path with
  | Some (Vfs.File f) -> Ok { st_size = f.Vfs.size; st_is_dir = false }
  | Some (Vfs.Dir _) -> Ok { st_size = 4096; st_is_dir = true }
  | Some (Vfs.Dev_null | Vfs.Dev_zero | Vfs.Console_out _ | Vfs.Console_in _) ->
      Ok { st_size = 0; st_is_dir = false }
  | None -> Error ENOENT

let fstat k p ~fd =
  enter k p "fstat" c_stat;
  match Process.fd p fd with
  | None -> Error EBADF
  | Some entry -> (
      match entry.Process.node with
      | Vfs.File f -> Ok { st_size = f.Vfs.size; st_is_dir = false }
      | Vfs.Dir _ -> Ok { st_size = 4096; st_is_dir = true }
      | Vfs.Dev_null | Vfs.Dev_zero | Vfs.Console_out _ | Vfs.Console_in _ ->
          Ok { st_size = 0; st_is_dir = false })

let lseek k p ~fd ~pos =
  enter k p "lseek" c_lseek;
  match Process.fd p fd with
  | None -> Error EBADF
  | Some entry ->
      if pos < 0 then Error EINVAL
      else begin
        entry.Process.pos <- pos;
        Ok pos
      end

let access_path k p ~path =
  enter k p "access" c_access;
  match Vfs.resolve k.Kernel.vfs ~cwd:p.Process.cwd path with
  | Some _ -> Ok ()
  | None -> Error ENOENT

let getcwd k p =
  enter k p "getcwd" c_getcwd;
  p.Process.cwd

(* --- memory --- *)

let mmap k p ~len ~prot ~kind =
  enter k p "mmap" c_mmap;
  if len <= 0 then Error EINVAL else Ok (Mm.mmap p.Process.mm ~len ~prot ~kind)

let munmap k p ~addr ~len =
  enter k p "munmap" c_munmap;
  if len <= 0 then Error EINVAL
  else begin
    let freed = sys k (fun () -> Mm.munmap p.Process.mm addr ~len) in
    sys k (fun () -> Machine.charge k.Kernel.machine (freed * per_page_teardown));
    Ok ()
  end

let mprotect k p ~addr ~len ~prot =
  enter k p "mprotect" c_mprotect;
  if len <= 0 then Error EINVAL
  else begin
    let touched = sys k (fun () -> Mm.mprotect p.Process.mm addr ~len prot) in
    sys k (fun () -> Machine.charge k.Kernel.machine (touched * per_page_protect));
    Ok ()
  end

let brk k p request =
  enter k p "brk" c_brk;
  Mm.brk p.Process.mm request

(* --- signals --- *)

let rt_sigaction k p ~signo ~handler =
  enter k p "rt_sigaction" c_sigaction;
  Signal.set_action p.Process.signals signo handler

let rt_sigprocmask k p ~block ~signo =
  enter k p "rt_sigprocmask" c_sigprocmask;
  if block then Signal.block p.Process.signals signo
  else Signal.unblock p.Process.signals signo

(* --- time --- *)

let vdso k p name =
  Kernel.count_syscall k p name;
  let costs = k.Kernel.machine.Machine.costs in
  (* User-space fast path.  On a ROS core the TLB is shared with the
     kernel and every other process, so the vdso page walk pays a little
     pressure; the HRT core is dedicated and its sparse TLB avoids it —
     the effect behind vdso calls being slightly {e faster} under
     Multiverse (Figure 9). *)
  let cpu = Machine.cpu_of_current k.Kernel.machine in
  let role = Mv_hw.Topology.role k.Kernel.machine.Machine.topo cpu.Mv_hw.Cpu.core_id in
  let pressure =
    match role with
    | Mv_hw.Topology.Ros_core -> costs.Mv_hw.Costs.tlb_pressure_penalty
    | Mv_hw.Topology.Hrt_core ->
        if Mv_hw.Tlb.occupancy cpu.Mv_hw.Cpu.tlb > 0.5 then
          costs.Mv_hw.Costs.tlb_pressure_penalty
        else 0
  in
  Machine.charge k.Kernel.machine (costs.Mv_hw.Costs.vdso_call + pressure)

let gettimeofday k p =
  vdso k p "gettimeofday";
  Kernel.wall_seconds k

let getpid k p =
  vdso k p "getpid";
  p.Process.pid

let getrusage k p =
  enter k p "getrusage" c_getrusage;
  Kernel.finalize_rusage k p;
  p.Process.rusage

let setitimer k p ~interval_us:_ =
  enter k p "setitimer" c_setitimer

let nanosleep k p ~ns =
  enter k p "nanosleep" c_nanosleep;
  Exec.sleep k.Kernel.machine.Machine.exec (Mv_util.Cycles.of_ns ns)

let poll k p ~fds ~timeout_ms =
  enter k p "poll" c_poll;
  let ready_fd fd =
    match Process.fd p fd with
    | None -> false
    | Some entry -> (
        match entry.Process.node with
        | Vfs.Console_in s -> Vfs.stream_has_data s || Vfs.stream_at_eof s
        | Vfs.File _ | Vfs.Dir _ | Vfs.Dev_null | Vfs.Dev_zero | Vfs.Console_out _ ->
            true)
  in
  let ready () = List.length (List.filter ready_fd fds) in
  let n = ready () in
  if n > 0 || timeout_ms <= 0 then n
  else begin
    (* Sleep for the timeout (input readiness also wakes us). *)
    let exec = k.Kernel.machine.Machine.exec in
    Exec.block exec ~reason:"poll" (fun ~now ~wake ->
        let woken = ref false in
        let wake_once () =
          if not !woken then begin
            woken := true;
            wake ()
          end
        in
        Sim.schedule_at (Exec.sim exec)
          (now + Mv_util.Cycles.of_ms (float_of_int timeout_ms))
          wake_once;
        List.iter
          (fun fd ->
            match Process.fd p fd with
            | Some { Process.node = Vfs.Console_in s; _ } ->
                Vfs.stream_on_data s wake_once
            | Some _ | None -> ())
          fds);
    ready ()
  end

(* --- processes and threads --- *)

let uname k p =
  enter k p "uname" c_uname;
  "Linux mv-ros 2.6.38-rc5+ x86_64"

let sched_yield k p =
  enter k p "sched_yield" c_sched_yield;
  Exec.yield k.Kernel.machine.Machine.exec

let clone k p ~name body =
  Kernel.count_syscall k p "clone";
  sys k (fun () ->
      Machine.charge k.Kernel.machine
        k.Kernel.machine.Machine.costs.Mv_hw.Costs.thread_create_ros);
  Kernel.spawn_thread k p ~name body

let futex_key p uaddr = (p.Process.pid, uaddr)

let futex_wait k p ~uaddr =
  enter k p "futex" c_futex;
  let key = futex_key p uaddr in
  let q =
    match Hashtbl.find_opt k.Kernel.futexes key with
    | Some q -> q
    | None ->
        let q = Queue.create () in
        Hashtbl.replace k.Kernel.futexes key q;
        q
  in
  Exec.block k.Kernel.machine.Machine.exec ~reason:"futex" (fun ~now:_ ~wake ->
      Queue.add (fun () -> wake ()) q)

let futex_wake k p ~uaddr ~all =
  enter k p "futex" c_futex;
  match Hashtbl.find_opt k.Kernel.futexes (futex_key p uaddr) with
  | None -> 0
  | Some q ->
      let n = ref 0 in
      let wake_one () =
        match Queue.take_opt q with
        | Some w ->
            w ();
            incr n;
            true
        | None -> false
      in
      if all then while wake_one () do () done else ignore (wake_one ());
      !n

let execve k p ~path:_ =
  enter k p "execve" 800;
  Error ENOSYS

let exit_group k p ~code =
  enter k p "exit_group" c_exit;
  Kernel.exit_process k p ~code
