(** One-shot coroutines over OCaml 5 effect handlers.

    A fiber runs ordinary OCaml code until it [suspend]s; the suspension
    captures the continuation and hands the caller a {!resumer} with which
    to continue (or cancel) it later.  The scheduler in {!Exec} builds
    simulated threads out of these.

    The resumer is the captured continuation itself — no record, option
    box or closure is wrapped around it, so a parked fiber holds nothing
    on the host heap beyond the continuation block.  Using it twice
    raises [Failure "Fiber: resumer used twice"]. *)

exception Cancelled
(** Raised inside a fiber when its resumer is cancelled (e.g. the simulated
    thread is killed). *)

type 'a resumer

val resume : 'a resumer -> 'a -> unit
(** Continue the fiber with a value (once). *)

val cancel : 'a resumer -> exn -> unit
(** Discontinue the fiber with an exception (once). *)

val run_with : ('a -> unit) -> 'a -> unit
(** [run_with f x] executes [f x] as a fiber in the current stack frame.
    It returns when the fiber finishes {e or} first suspends.  Uncaught
    exceptions other than {!Cancelled} propagate to whoever called
    [run_with] or a [resume].  Passing a top-level [f] and its argument,
    instead of a closure over them, starts a fiber without allocating. *)

val run : (unit -> unit) -> unit
(** [run body] is [run_with body ()]. *)

val suspend : ('a resumer -> unit) -> 'a
(** [suspend register] — callable only inside a fiber — captures the
    continuation, passes its resumer to [register], and returns whatever
    value the resumer is eventually fed.
    @raise Effect.Unhandled outside a fiber. *)
