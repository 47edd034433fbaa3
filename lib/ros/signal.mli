(** POSIX-style signals.

    The Racket garbage collector's write barrier works by [mprotect]ing
    heap pages and fielding the resulting SIGSEGVs (paper, Section 5), so
    faithful signal registration/delivery/return is a load-bearing part of
    the reproduction.  Handlers are guest OCaml closures; delivery charges
    the frame-building and [rt_sigreturn] costs. *)

type signo = Sigsegv | Sigvtalrm | Sigint | Sigusr1 | Sigusr2 | Sigchld

val name : signo -> string

type siginfo = {
  si_signo : signo;
  si_addr : Mv_hw.Addr.t;  (** faulting address for SIGSEGV, else 0 *)
  si_write : bool;  (** was the faulting access a write *)
}

type handler = Default | Ignore | Handler of (siginfo -> unit)

type t
(** Per-process signal state. *)

val create : unit -> t
val set_action : t -> signo -> handler -> unit

val clear_actions : t -> unit
(** Drop every handler, so the table holds no guest closure: an exited
    process's. *)

val action : t -> signo -> handler
val registered : t -> signo -> bool
(** Is a user handler installed? *)

val block : t -> signo -> unit
val unblock : t -> signo -> unit
val is_blocked : t -> signo -> bool
