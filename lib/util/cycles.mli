(** Virtual time measured in CPU clock cycles.

    All latencies in the simulator are expressed in cycles of the simulated
    machine clock.  The reference machine is the paper's 8-core AMD Opteron
    4122 at 2.2 GHz, so conversion between cycles and wall-clock time uses
    that frequency unless overridden. *)

type t = int
(** A cycle count (or a point in virtual time, as cycles since boot). *)

val zero : t

val clock_ghz : float
(** Clock rate of the simulated machine in GHz (2.2, per the paper). *)

val of_ns : float -> t
(** [of_ns ns] is the number of cycles covering [ns] nanoseconds. *)

val of_us : float -> t
val of_ms : float -> t
val of_sec : float -> t

val to_ns : t -> float
val to_us : t -> float
val to_ms : t -> float
val to_sec : t -> float

val pp : Format.formatter -> t -> unit
(** Human-readable rendering: cycles with a time equivalent, e.g.
    ["25000 cyc (11.4 us)"]. *)
