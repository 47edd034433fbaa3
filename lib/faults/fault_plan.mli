(** Deterministic fault injection.

    A fault plan decides, at a set of named {e sites}, whether the next
    boundary crossing misbehaves: event-channel messages can be dropped,
    delayed, duplicated, or corrupted; partner threads can be killed; the
    HRT boot protocol can stall; forwarded syscalls can return spurious
    errnos.  Every decision flows through a per-site splitmix64 stream
    derived from one seed, so a run is exactly reproducible from
    [(seed, rate, sites)] — and changing which sites are enabled does not
    perturb the streams of the others.

    Every injected fault is emitted through the bound machine's
    {!Mv_engine.Trace} under category ["fault"], which is what the
    determinism tests compare byte-for-byte.

    The disabled plan ({!none}) costs one branch per site query; consumers
    use it as the default so the harness is zero-cost when off. *)

type site =
  | Chan_drop  (** lose an event-channel request in transit *)
  | Chan_delay  (** deliver an event-channel request late *)
  | Chan_duplicate  (** deliver an event-channel request twice *)
  | Chan_corrupt  (** corrupt a request so the server must discard it *)
  | Partner_kill  (** kill an idle ROS partner thread *)
  | Boot_stall  (** stall the millisecond HRT boot protocol once *)
  | Syscall_eagain  (** forwarded syscall spuriously returns EAGAIN *)
  | Syscall_enosys  (** forwarded syscall spuriously returns ENOSYS *)

val all_sites : site list

val sites_of_string : string -> (site list, string) result
(** Parse a comma-separated site list (["all"] or [""] mean every site);
    the error names the offending site and lists the known ones.  Shared
    by the CLI drivers and the mvcheck counterexample artifacts. *)

val sites_to_string : site list -> string
(** Inverse of {!sites_of_string} (["all"] when every site is listed). *)

type t

val none : t
(** The inert plan: never fires, never draws randomness, never traces. *)

val create : seed:int -> ?rate:float -> ?sites:site list -> unit -> t
(** [create ~seed ~rate ~sites ()] arms the listed sites (default: all)
    with per-query probability [rate] (default 0.05).  A rate of [0.] is a
    {e zero-fault plan}: the resilience machinery runs armed but no fault
    ever fires — used to prove the machinery itself is cycle-neutral.
    @raise Invalid_argument unless [0. <= rate <= 1.] (NaN included). *)

val enabled : t -> bool
(** [true] for any created plan (even rate 0), [false] for {!none}.
    Consumers arm their resilience paths iff this is set. *)

val bind : t -> Mv_engine.Machine.t -> unit
(** Attach the trace sink; injected faults emit records at the machine's
    current virtual time. *)

val fire : t -> site -> string -> bool
(** [fire t site ctx] draws the site's stream and reports whether to
    inject here; on [true] the fault is counted and traced with [ctx]. *)

val extra_delay : t -> site -> base:int -> int
(** Cycles of extra latency for a delay-class fault that just fired:
    uniform in [[base, 4*base)], drawn from the site's stream. *)

val syscall_errno : t -> string -> string option
(** Spurious errno (["EAGAIN"] | ["ENOSYS"]) for a forwarded syscall, or
    [None] to let it through. *)

val seed : t -> int
val rate : t -> float
val injected : t -> int
val injected_at : t -> site -> int

val pp_summary : Format.formatter -> t -> unit
(** One-line [site=count] summary of everything injected so far. *)
