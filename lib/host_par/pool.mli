(** A host-side OCaml 5 domain task pool for embarrassingly parallel
    simulation sweeps.

    Every (scenario, seed, strategy) tuple of an mvcheck sweep, every seed
    of a fault matrix, and every cell of a bench matrix is one independent
    {!Mv_engine.Machine} run; this pool fans such runs out across a fixed
    number of worker domains.  The design invariant is {b determinism}:
    results are merged by {e submission index}, never by completion order,
    so any quantity computed from a {!map} or {!find_first} result is
    bit-identical whatever [jobs] is and however the domains interleave.

    Tasks must be {e domain-confined}: they may not share mutable state
    with each other or with the submitter (each task builds its own
    machine).  Tasks must not print — they return values, and the
    submitter renders them in submission order.

    With [jobs = 1] no domains are spawned and every operation runs
    inline in the calling domain, byte-for-byte the sequential code
    path. *)

type t

val create : jobs:int -> t
(** [create ~jobs] spawns [jobs] worker domains ([jobs >= 1]; with 1, no
    domains are spawned and work runs inline).  Raises [Invalid_argument]
    on [jobs < 1]. *)

val jobs : t -> int
(** The configured worker count. *)

val map : t -> ('a -> 'b) -> 'a array -> 'b array
(** [map t f xs] runs [f xs.(i)] for every [i], in parallel across the
    workers, and returns the results {e in submission order}:
    [(map t f xs).(i) = f xs.(i)].  Blocks until every task completes.
    If any task raises, the exception of the {e lowest} raising index is
    re-raised in the caller (after all tasks have finished). *)

val find_first : t -> ('a -> 'b option) -> 'a array -> (int * 'b) option
(** [find_first t f xs] is [Some (i, r)] for the {e smallest} [i] with
    [f xs.(i) = Some r], or [None].  Deterministic: the winner is decided
    by submission index, not completion order.  Tasks whose index is
    already above the best-known hit may be skipped entirely (their [f]
    is never called), so a sweep short-circuits like its sequential
    counterpart; tasks below the winning index always run. *)

val run : jobs:int -> (unit -> 'a) list -> 'a list
(** One-shot convenience: create a pool, {!map} the thunks in order, shut
    it down. *)

val shutdown : t -> unit
(** Stop and join the worker domains.  The pool must be idle (no batch in
    flight).  Idempotent. *)
