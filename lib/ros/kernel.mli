(** The ROS (Linux-like) kernel: processes, threads, scheduling glue,
    memory-access and fault handling, signal delivery, and the accounting
    split between user and system time.

    The kernel can run bare-metal or "virtualized" (as the ROS partition of
    an HVM guest), in which case VM-exit and nested-paging costs apply —
    this is the paper's "Virtual" baseline configuration. *)

exception Process_killed of string
(** Raised inside a guest thread when its process dies (fatal signal,
    [exit_group], or a disallowed operation). *)

type task = { tk_proc : Process.t; tk_thread : Mv_engine.Exec.thread }

type t = {
  machine : Mv_engine.Machine.t;
  vfs : Vfs.t;
  mutable procs : Process.t list;
  mutable next_pid : int;
  mutable virtualized : bool;
  mutable vm_exits : int;
  mutable silent_corruptions : int;
      (** ring-0 writes that bypassed read-only protections (CR0.WP clear) *)
  wall_epoch : float;  (** base wall-clock seconds at boot *)
  wall_started : (int, Mv_util.Cycles.t) Hashtbl.t;  (** pid -> start *)
  wall_finished : (int, Mv_util.Cycles.t) Hashtbl.t;  (** pid -> end *)
  futexes : (int * int, (unit -> unit) Queue.t) Hashtbl.t;
      (** waiters keyed by (pid, futex word address) *)
  ros_cores : int array;  (** cached topology for the O(1) core picker *)
  mutable rr_next : int;  (** round-robin cursor for thread placement *)
  mutable tasks : task option array;
      (** by Exec tid: the task of each thread the kernel owns *)
  mutable sys_depths : int array;
      (** by Exec tid: [in_sys] nesting depth; charged cycles are system
          time at depth > 0, user time otherwise *)
}

val create : ?virtualized:bool -> Mv_engine.Machine.t -> t

(** {1 Processes and threads} *)

val spawn_process :
  t -> name:string -> ?cpu:int -> ?stdout_tee:(string -> unit) -> (Process.t -> unit) -> Process.t
(** Create a process whose main thread runs the given body on a ROS core
    (core 0 by default).  The process exits when the body returns, raises,
    or calls [exit_group]. *)

val spawn_thread : t -> Process.t -> name:string -> ?cpu:int -> (unit -> unit) -> Mv_engine.Exec.thread
(** Add a thread to a process (the kernel side of [clone]). *)

val register_foreign_thread : t -> Process.t -> Mv_engine.Exec.thread -> unit
(** Associate a thread created elsewhere (an HRT thread) with a process so
    kernel services invoked on its behalf account correctly. *)

val current : t -> task
(** @raise Failure outside guest-thread context. *)

val exit_process : t -> Process.t -> code:int -> unit
(** Run exit hooks, tear down threads and memory, drop the signal
    handlers, record end time.  The hooks run before the other threads
    are discontinued.  If called from one of the process's own threads,
    raises {!Process_killed} after teardown. *)

(** {1 Accounting} *)

val in_sys : t -> (unit -> 'a) -> 'a
(** Attribute cycles charged inside the window to system time. *)

val count_syscall : t -> Process.t -> string -> unit
val wall_seconds : t -> float
(** Virtual wall-clock time, epoch-based. *)

val runtime_of : t -> Process.t -> Mv_util.Cycles.t
(** Wall-clock cycles between process start and exit (or now). *)

val finalize_rusage : t -> Process.t -> unit
(** Fold the per-thread context-switch counters into the process rusage. *)

(** {1 Memory access (native path)} *)

val access : t -> Mv_hw.Addr.t -> write:bool -> unit
(** Perform a guest memory access on the current core: TLB/walk, demand
    paging, COW, SIGSEGV delivery — retrying until the access succeeds or
    the process dies.  This is the native-execution path; under Multiverse
    the AeroKernel's forwarding version is used instead. *)

val service_fault : t -> Process.t -> Mv_hw.Addr.t -> write:bool -> Mm.fault_outcome
(** The kernel's fault service (shared by native and forwarded paths):
    charges the trap, updates counters, and resolves via {!Mm}. *)

val deliver_signal : t -> Process.t -> Signal.siginfo -> unit
(** Deliver a signal in the current thread: runs the registered guest
    handler (charging frame build and [rt_sigreturn]), or takes the
    default action on an unhandled signal, and on a SIGSEGV that arrives
    while the process mask blocks it. *)

val default_action : t -> Process.t -> Signal.siginfo -> unit
(** A signal's default action: SIGSEGV and SIGINT trace a fatal signal
    and kill the process with exit code 139; the others are dropped. *)
