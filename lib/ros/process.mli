(** ROS processes: address space, file descriptors, signals, accounting. *)

type fd_entry = { mutable pos : int; node : Vfs.node; path : string }

type t = {
  pid : int;
  pname : string;
  mm : Mm.t;
  fds : (int, fd_entry) Hashtbl.t;
  mutable next_fd : int;
  signals : Signal.t;
  rusage : Rusage.t;
  syscall_counts : Mv_util.Histogram.t;
  mutable cwd : string;
  mutable threads : Mv_engine.Exec.thread list;
  mutable exited : bool;
  mutable exit_code : int;
  stdout_buf : Buffer.t;  (** everything the process wrote to fd 1/2 *)
  stdin : Vfs.stream_in;
  mutable exit_hooks : (t -> unit) list;
      (** run at process exit — Multiverse registers its HRT shutdown here *)
  mutable gdt_image : int;  (** identity of the process GDT, superimposed on the HRT *)
  mutable fs_base : Mv_hw.Addr.t;  (** TLS base, superimposed on the HRT *)
}

val create :
  Mv_engine.Machine.t -> pid:int -> name:string -> ?stdout_tee:(string -> unit) -> unit -> t
(** Build a process with an empty lower-half address space, a standard
    stack VMA, stdin/stdout/stderr descriptors, and fresh accounting. *)

val alloc_fd : t -> Vfs.node -> path:string -> int
val fd : t -> int -> fd_entry option
val close_fd : t -> int -> bool
val stdout_contents : t -> string
val add_exit_hook : t -> (t -> unit) -> unit
