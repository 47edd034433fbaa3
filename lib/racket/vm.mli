(** The bytecode interpreter.

    A stack machine over GC-heap values: activation frames are heap
    objects (so deep recursion and closures churn the collector, as in a
    real Scheme runtime), tail calls reuse the host call frame, and every
    executed instruction is charged to the simulated clock.  The VM's
    value stack, call frames, globals and constants are the GC roots.

    [on_tick] fires periodically (by instruction count) and is where the
    engine hangs its cooperative-thread scheduler work — the
    gettimeofday/poll/getrusage chatter of Figures 10-12. *)

exception Scheme_error of string

(** Hooks the engine installs to implement places (parallel Scheme
    instances, each in its own VM/heap/thread — paper future work). *)
type place_ops = {
  po_spawn : string -> int;  (** start a place from source; returns its id *)
  po_send : int -> Places.msg -> unit;  (** id 0 = my parent *)
  po_recv : int -> Places.msg;  (** blocking *)
  po_wait : int -> unit;
}

type t

val create : Mv_guest.Env.t -> Mv_guest.Libc.t -> Sgc.t -> t
val cstate : t -> Code.cstate
val gc : t -> Sgc.t
val set_on_tick : t -> (t -> unit) -> unit
val set_on_jit : t -> (Code.code -> unit) -> unit
(** Called the first time each code object is invoked (JIT compilation). *)

val set_place_ops : t -> place_ops -> unit
(** Enable the place primitives; without this they raise
    {!Scheme_error}. *)

val run_code : t -> int -> Value.v
(** Execute a code object (by index) with no arguments; returns its
    result.  @raise Scheme_error on runtime type/arity errors. *)

val instructions_executed : t -> int

val check_display : t -> unit
(** Check every live activation's display against the parent links of
    its environment chain, which the display stands in for.
    @raise Failure on the first entry that differs. *)

val display_string : t -> Value.v -> string
(** [display]-style rendering. *)

val write_string_of : t -> Value.v -> string
(** [write]-style rendering (strings quoted, chars as literals). *)
