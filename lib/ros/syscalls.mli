(** System-call handlers.

    Each function implements the {e kernel side} of one Linux-ABI system
    call: it counts the call in the process's histogram, charges the
    handler's cycles as system time, and performs the operation.  The
    {e entry} cost is the caller's business — the native path charges a
    SYSCALL trap, the Multiverse path charges the Nautilus stub plus an
    event-channel round trip (paper, Figure 9) — so these handlers can be
    invoked locally or from a forwarding partner thread unchanged.

    The vdso calls ([getpid], [gettimeofday]) are the exception: they run
    entirely in user space (paper, Section 5). *)

type errno = ENOENT | EBADF | EINVAL | ENOSYS | ENOTDIR | EAGAIN

val errno_name : errno -> string

type stat_info = { st_size : int; st_is_dir : bool }

type open_flag = O_RDONLY | O_WRONLY | O_RDWR | O_CREAT | O_TRUNC | O_APPEND

(** {1 File I/O} *)

val openat : Kernel.t -> Process.t -> path:string -> flags:open_flag list -> (int, errno) result
val close : Kernel.t -> Process.t -> fd:int -> (unit, errno) result

val read :
  Kernel.t -> Process.t -> fd:int -> buf:Bytes.t -> off:int -> len:int -> (int, errno) result
(** Blocks (console input) until data or EOF; returns bytes read, 0 at EOF. *)

val write :
  Kernel.t -> Process.t -> fd:int -> buf:Bytes.t -> off:int -> len:int -> (int, errno) result

val stat : Kernel.t -> Process.t -> path:string -> (stat_info, errno) result
val fstat : Kernel.t -> Process.t -> fd:int -> (stat_info, errno) result
val lseek : Kernel.t -> Process.t -> fd:int -> pos:int -> (int, errno) result
val access_path : Kernel.t -> Process.t -> path:string -> (unit, errno) result
val getcwd : Kernel.t -> Process.t -> string

(** {1 Memory} *)

val mmap : Kernel.t -> Process.t -> len:int -> prot:Mm.prot -> kind:string -> (Mv_hw.Addr.t, errno) result
val munmap : Kernel.t -> Process.t -> addr:Mv_hw.Addr.t -> len:int -> (unit, errno) result
val mprotect : Kernel.t -> Process.t -> addr:Mv_hw.Addr.t -> len:int -> prot:Mm.prot -> (unit, errno) result
val brk : Kernel.t -> Process.t -> Mv_hw.Addr.t option -> Mv_hw.Addr.t

(** {1 Signals} *)

val rt_sigaction : Kernel.t -> Process.t -> signo:Signal.signo -> handler:Signal.handler -> unit
val rt_sigprocmask : Kernel.t -> Process.t -> block:bool -> signo:Signal.signo -> unit

(** {1 Time and accounting} *)

val gettimeofday : Kernel.t -> Process.t -> float
(** vdso fast path: charged as user time, no kernel entry. *)

val getpid : Kernel.t -> Process.t -> int
(** vdso-style fast path (matching the paper's Figure 9 grouping). *)

val getrusage : Kernel.t -> Process.t -> Rusage.t
val setitimer : Kernel.t -> Process.t -> interval_us:int -> unit
val nanosleep : Kernel.t -> Process.t -> ns:float -> unit
val poll : Kernel.t -> Process.t -> fds:int list -> timeout_ms:int -> int
(** Number of ready descriptors; blocks up to the timeout when none are
    ready and the timeout is positive. *)

(** {1 Processes and threads} *)

val uname : Kernel.t -> Process.t -> string
val sched_yield : Kernel.t -> Process.t -> unit
val clone : Kernel.t -> Process.t -> name:string -> (unit -> unit) -> Mv_engine.Exec.thread
val futex_wait : Kernel.t -> Process.t -> uaddr:int -> unit
val futex_wake : Kernel.t -> Process.t -> uaddr:int -> all:bool -> int
val execve : Kernel.t -> Process.t -> path:string -> (unit, errno) result
(** Always [Error ENOSYS] in this kernel; present because Multiverse must
    {e reject} it in HRT context (paper, Section 4.2) and we test both
    layers. *)

val exit_group : Kernel.t -> Process.t -> code:int -> unit
(** Does not return when called from a thread of the process. *)
