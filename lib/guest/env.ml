module Machine = Mv_engine.Machine
module Exec = Mv_engine.Exec
open Mv_ros

type thread_handle = Exec.thread

type t = {
  mode_name : string;
  kernel : Kernel.t;
  proc : Process.t;
  work : int -> unit;
  touch : Mv_hw.Addr.t -> unit;
  store : Mv_hw.Addr.t -> unit;
  mmap : len:int -> prot:Mm.prot -> kind:string -> Mv_hw.Addr.t;
  munmap : addr:Mv_hw.Addr.t -> len:int -> unit;
  mprotect : addr:Mv_hw.Addr.t -> len:int -> prot:Mm.prot -> unit;
  brk : Mv_hw.Addr.t option -> Mv_hw.Addr.t;
  open_ : path:string -> flags:Syscalls.open_flag list -> (int, Syscalls.errno) result;
  close : fd:int -> unit;
  read : fd:int -> buf:Bytes.t -> off:int -> len:int -> int;
  write : fd:int -> buf:Bytes.t -> off:int -> len:int -> int;
  stat : path:string -> (Syscalls.stat_info, Syscalls.errno) result;
  fstat : fd:int -> (Syscalls.stat_info, Syscalls.errno) result;
  lseek : fd:int -> pos:int -> int;
  access_path : path:string -> bool;
  getcwd : unit -> string;
  sigaction : Signal.signo -> Signal.handler -> unit;
  sigprocmask : block:bool -> Signal.signo -> unit;
  gettimeofday : unit -> float;
  getpid : unit -> int;
  getrusage : unit -> Rusage.t;
  setitimer : interval_us:int -> unit;
  poll : fds:int list -> timeout_ms:int -> int;
  nanosleep : ns:float -> unit;
  sched_yield : unit -> unit;
  uname : unit -> string;
  thread_create : name:string -> (unit -> unit) -> thread_handle;
  thread_join : thread_handle -> unit;
  exit : code:int -> unit;
  execve : path:string -> (unit, Syscalls.errno) result;
}

type crossing = {
  syscall : 'a. string -> (unit -> 'a) -> 'a;
  vdso : 'a. string -> (unit -> 'a) -> 'a;
  access : Mv_hw.Addr.t -> write:bool -> unit;
}

let native_crossing k =
  let machine = k.Kernel.machine in
  let trap_cost = machine.Machine.costs.Mv_hw.Costs.syscall_trap in
  {
    (* Entry cost of one SYSCALL/SYSRET pair, charged as system time. *)
    syscall =
      (fun _name body ->
        Kernel.in_sys k (fun () -> Machine.charge machine trap_cost);
        body ());
    (* vdso fast paths: no kernel entry. *)
    vdso = (fun _name body -> body ());
    access = (fun addr ~write -> Kernel.access k addr ~write);
  }

let make ~mode_name c k p =
  let machine = k.Kernel.machine in
  let ok_or_zero = function Ok n -> n | Error _ -> 0 in
  {
    mode_name;
    kernel = k;
    proc = p;
    work = (fun cycles -> Machine.charge machine cycles);
    touch = (fun addr -> c.access addr ~write:false);
    store = (fun addr -> c.access addr ~write:true);
    mmap =
      (fun ~len ~prot ~kind ->
        c.syscall "mmap" (fun () ->
            match Syscalls.mmap k p ~len ~prot ~kind with
            | Ok addr -> addr
            | Error e -> failwith ("mmap: " ^ Syscalls.errno_name e)));
    munmap =
      (fun ~addr ~len -> c.syscall "munmap" (fun () -> ignore (Syscalls.munmap k p ~addr ~len)));
    mprotect =
      (fun ~addr ~len ~prot ->
        c.syscall "mprotect" (fun () -> ignore (Syscalls.mprotect k p ~addr ~len ~prot)));
    brk = (fun req -> c.syscall "brk" (fun () -> Syscalls.brk k p req));
    open_ = (fun ~path ~flags -> c.syscall "open" (fun () -> Syscalls.openat k p ~path ~flags));
    close = (fun ~fd -> c.syscall "close" (fun () -> ignore (Syscalls.close k p ~fd)));
    read =
      (fun ~fd ~buf ~off ~len ->
        c.syscall "read" (fun () -> ok_or_zero (Syscalls.read k p ~fd ~buf ~off ~len)));
    write =
      (fun ~fd ~buf ~off ~len ->
        c.syscall "write" (fun () -> ok_or_zero (Syscalls.write k p ~fd ~buf ~off ~len)));
    stat = (fun ~path -> c.syscall "stat" (fun () -> Syscalls.stat k p ~path));
    fstat = (fun ~fd -> c.syscall "fstat" (fun () -> Syscalls.fstat k p ~fd));
    lseek =
      (fun ~fd ~pos -> c.syscall "lseek" (fun () -> ok_or_zero (Syscalls.lseek k p ~fd ~pos)));
    access_path =
      (fun ~path ->
        c.syscall "access" (fun () ->
            match Syscalls.access_path k p ~path with Ok () -> true | Error _ -> false));
    getcwd = (fun () -> c.syscall "getcwd" (fun () -> Syscalls.getcwd k p));
    sigaction =
      (fun signo handler ->
        c.syscall "rt_sigaction" (fun () -> Syscalls.rt_sigaction k p ~signo ~handler));
    sigprocmask =
      (fun ~block signo ->
        c.syscall "rt_sigprocmask" (fun () -> Syscalls.rt_sigprocmask k p ~block ~signo));
    gettimeofday = (fun () -> c.vdso "gettimeofday" (fun () -> Syscalls.gettimeofday k p));
    getpid = (fun () -> c.vdso "getpid" (fun () -> Syscalls.getpid k p));
    getrusage = (fun () -> c.syscall "getrusage" (fun () -> Syscalls.getrusage k p));
    setitimer =
      (fun ~interval_us -> c.syscall "setitimer" (fun () -> Syscalls.setitimer k p ~interval_us));
    poll =
      (fun ~fds ~timeout_ms -> c.syscall "poll" (fun () -> Syscalls.poll k p ~fds ~timeout_ms));
    nanosleep = (fun ~ns -> c.syscall "nanosleep" (fun () -> Syscalls.nanosleep k p ~ns));
    sched_yield = (fun () -> c.syscall "sched_yield" (fun () -> Syscalls.sched_yield k p));
    uname = (fun () -> c.syscall "uname" (fun () -> Syscalls.uname k p));
    thread_create =
      (fun ~name body -> c.syscall "clone" (fun () -> Syscalls.clone k p ~name body));
    thread_join =
      (fun th ->
        (* glibc joins by futex-waiting on the thread's tid word. *)
        c.syscall "futex" (fun () ->
            Kernel.count_syscall k p "futex";
            Exec.join machine.Machine.exec th));
    exit = (fun ~code -> c.syscall "exit_group" (fun () -> Syscalls.exit_group k p ~code));
    execve = (fun ~path -> c.syscall "execve" (fun () -> Syscalls.execve k p ~path));
  }

let native k p =
  make ~mode_name:(if k.Kernel.virtualized then "virtual" else "native") (native_crossing k) k p
