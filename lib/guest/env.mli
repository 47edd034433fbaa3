(** The guest ABI: everything a user-level program (the Racket runtime, the
    microbenchmarks) can ask of its execution environment.

    A guest program is written once against this record and runs unchanged
    in all three of the paper's configurations:

    - {b native}: syscalls trap into the local ROS kernel;
    - {b virtual}: the same, inside an HVM guest (exit overheads apply);
    - {b Multiverse}: the program executes as an HRT thread in kernel mode
      on an HRT core; syscalls and lower-half page faults are forwarded to
      a ROS partner thread over event channels, while vdso calls and
      AeroKernel overrides run locally.

    This mirrors the paper's claim that "the user sees no difference
    between HRT execution and user-level execution" — the interface is
    identical, only the wiring differs.  Here the wiring is a {!crossing}:
    {!make} builds the one ABI over it, and the configurations differ only
    in the crossing they pass (plus the AeroKernel overrides the
    Multiverse runtime puts on top). *)

type thread_handle = Mv_engine.Exec.thread

type t = {
  mode_name : string;
  kernel : Mv_ros.Kernel.t;
  proc : Mv_ros.Process.t;
  work : int -> unit;  (** charge pure-compute cycles *)
  touch : Mv_hw.Addr.t -> unit;  (** read access (page granularity) *)
  store : Mv_hw.Addr.t -> unit;  (** write access (page granularity) *)
  mmap : len:int -> prot:Mv_ros.Mm.prot -> kind:string -> Mv_hw.Addr.t;
  munmap : addr:Mv_hw.Addr.t -> len:int -> unit;
  mprotect : addr:Mv_hw.Addr.t -> len:int -> prot:Mv_ros.Mm.prot -> unit;
  brk : Mv_hw.Addr.t option -> Mv_hw.Addr.t;
  open_ : path:string -> flags:Mv_ros.Syscalls.open_flag list -> (int, Mv_ros.Syscalls.errno) result;
  close : fd:int -> unit;
  read : fd:int -> buf:Bytes.t -> off:int -> len:int -> int;
  write : fd:int -> buf:Bytes.t -> off:int -> len:int -> int;
  stat : path:string -> (Mv_ros.Syscalls.stat_info, Mv_ros.Syscalls.errno) result;
  fstat : fd:int -> (Mv_ros.Syscalls.stat_info, Mv_ros.Syscalls.errno) result;
  lseek : fd:int -> pos:int -> int;
  access_path : path:string -> bool;
  getcwd : unit -> string;
  sigaction : Mv_ros.Signal.signo -> Mv_ros.Signal.handler -> unit;
  sigprocmask : block:bool -> Mv_ros.Signal.signo -> unit;
  gettimeofday : unit -> float;
  getpid : unit -> int;
  getrusage : unit -> Mv_ros.Rusage.t;
  setitimer : interval_us:int -> unit;
  poll : fds:int list -> timeout_ms:int -> int;
  nanosleep : ns:float -> unit;
  sched_yield : unit -> unit;
  uname : unit -> string;
  thread_create : name:string -> (unit -> unit) -> thread_handle;
  thread_join : thread_handle -> unit;
  exit : code:int -> unit;
  execve : path:string -> (unit, Mv_ros.Syscalls.errno) result;
}

type crossing = {
  syscall : 'a. string -> (unit -> 'a) -> 'a;
      (** [syscall name body]: enter the kernel for system call [name] and
          run its handler [body] there. *)
  vdso : 'a. string -> (unit -> 'a) -> 'a;
      (** [vdso name body]: a vdso call, served without a kernel entry. *)
  access : Mv_hw.Addr.t -> write:bool -> unit;  (** a guest memory access *)
}
(** How guest code reaches its kernel: the one thing that differs between
    the modes.  The calls themselves, and the handlers they run, are the
    same everywhere. *)

val native_crossing : Mv_ros.Kernel.t -> crossing
(** The direct-execution crossing: every system call pays one SYSCALL trap
    into the given kernel, then runs its handler; vdso calls run in place;
    memory accesses go through the local MMU/fault path. *)

val make : mode_name:string -> crossing -> Mv_ros.Kernel.t -> Mv_ros.Process.t -> t
(** The guest ABI over a crossing: each entry names its system call and
    runs the {!Mv_ros.Syscalls} handler through the crossing.  This is the
    only place the ABI's calls are listed; [work] charges compute cycles in
    every mode. *)

val native : Mv_ros.Kernel.t -> Mv_ros.Process.t -> t
(** [make] over {!native_crossing}.  This single constructor serves both
    the paper's "Native" and "Virtual" rows — the difference is whether
    the kernel was created with [~virtualized:true]. *)
