(** Deterministic pseudo-random number generation.

    The whole simulation must be reproducible run-to-run, so all randomness
    flows through explicitly seeded generators.  The implementation is
    splitmix64, which is fast, has a full 64-bit state, and splits cleanly
    into independent streams. *)

type t

val create : seed:int -> t
(** [create ~seed] is a fresh generator determined entirely by [seed]. *)

val split : t -> t
(** [split t] is a new generator statistically independent of [t]'s
    subsequent output.  Advances [t]. *)

val substream : t -> int -> t
(** [substream t i] is the [i]th derived generator of [t]'s current state
    ([i >= 0]).  Unlike {!split} it does {e not} advance [t], and distinct
    indices yield independent streams, so a parallel sweep can hand
    substream [i] to task [i] without any cross-task ordering.  Raises
    [Invalid_argument] on a negative index. *)

val next : t -> int
(** [next t] is a uniformly distributed non-negative 62-bit integer. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Requires [bound > 0]. *)

val fill_bytes : t -> Bytes.t -> pos:int -> len:int -> unit
(** [fill_bytes t buf ~pos ~len] stores [len] bytes at [pos], each what
    [int t 256] would return, and leaves [t] where [len] such calls
    would.  Raises [Invalid_argument] when the range is not in [buf]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool
