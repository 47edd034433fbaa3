(** The Nautilus AeroKernel.

    A lightweight kernel framework that runs on the HRT core partition,
    entirely in ring 0.  It provides the pieces Multiverse needs (paper,
    Sections 2 and 4.4):

    - fast kernel threads (creation orders of magnitude cheaper than Linux);
    - a boot protocol measured in milliseconds, ending in an event loop
      that services thread-creation requests from the ROS side;
    - a page-fault handler that forwards lower-half (ROS user) faults over
      an event channel, with duplicate-fault detection that re-merges the
      PML4 when the ROS changed a top-level entry;
    - a system-call stub that forwards to the ROS, working around the
      SYSRET ring-0-to-ring-0 restriction and the red zone by pulling the
      stack down and using IST interrupt stacks;
    - CR0.WP enforcement so ring-0 execution keeps user-mode paging
      semantics (copy-on-write, write barriers);
    - an exported-function table used by AeroKernel overrides.

    The ROS-facing services (how exactly a fault or syscall is forwarded)
    are injected by the HVM/Multiverse layer via {!set_services}. *)

type fault_reply = Fault_fixed | Fault_fatal of string

type services = {
  svc_forward_fault : Mv_hw.Addr.t -> write:bool -> fault_reply;
      (** ship a lower-half page fault to the ROS partner and wait *)
  svc_forward_syscall : string -> (unit -> unit) -> unit;
      (** ship a system-call request (named, with its executable payload)
          to the ROS partner and wait for completion *)
  svc_request_remerge : unit -> Mv_hw.Page_table.t;
      (** ask for the current ROS root to re-copy the lower half from *)
}

type t

val create : ?part:Mv_hw.Partition.id -> Mv_engine.Machine.t -> t
(** Configure an AeroKernel image for one HRT partition's cores (default:
    partition 1): IST stacks on, CR0.WP set, higher-half identity map in
    place.  Does not boot.  Multiple instances may coexist on one machine,
    one per HRT partition.
    @raise Invalid_argument if the partition has no cores or is the ROS. *)

val partition : t -> Mv_hw.Partition.id
(** The HRT partition this instance runs on. *)

val cores : t -> int list
(** The partition's current cores — dynamic under core lending. *)

val adopt_core : t -> core:int -> unit
(** Configure the architectural state of a core lent {e into} this
    partition (ring 0, CR0.WP, IST stacks) — what [create] does for the
    initial core set. *)

val deconfigure_core : Mv_engine.Machine.t -> int -> unit
(** Restore a core's ROS-side architectural defaults (ring 3, CR0.WP off,
    no IST) when it leaves an HRT partition. *)

val boot : t -> unit
(** Boot (thread context; costs milliseconds of virtual time).  Brings up
    the per-core event loops.  Idempotent reboot is permitted. *)

val booted : t -> bool
val machine : t -> Mv_engine.Machine.t
val page_table : t -> Mv_hw.Page_table.t
val set_services : t -> services -> unit

(** {1 Threads} *)

val request_create_thread :
  t -> name:string -> ?core:int -> (unit -> unit) -> Mv_engine.Exec.thread
(** Enqueue a thread-creation request to the boot event loop and wait for
    the thread to exist (thread context; this is what an HVM function-call
    hypercall turns into). *)

val create_thread_local :
  t -> name:string -> ?core:int -> (unit -> unit) -> Mv_engine.Exec.thread
(** Nested-thread creation from {e inside} the HRT: no event loop round
    trip, just the (cheap) AeroKernel thread cost. *)

val join_thread : t -> Mv_engine.Exec.thread -> unit
val thread_count : t -> int

(** {1 Memory} *)

val merge_lower_half : t -> from:Mv_hw.Page_table.t -> unit
(** Copy PML4 slots 0..255 from the ROS root and shoot down the HRT TLBs'
    {e lower half} (the ranged invalidation leaves the higher-half 1 GiB
    identity entries resident).  Records the source and its lower-half
    generation so staleness is detectable. *)

val access : t -> Mv_hw.Addr.t -> write:bool -> unit
(** Memory access from an HRT thread: ring-0 MMU check against the HRT
    root; lower-half faults are forwarded to the ROS; a repeated fault on
    the same page — or a lower-half generation diverging from the merge
    snapshot, which would otherwise translate stale frames {e without}
    faulting — re-merges the PML4 (paper, Section 4.4).  Higher-half
    faults are fatal with huge pages on (the 1 GiB map covers physical
    memory); with them off the direct map demand-fills 4 KiB at a time.
    @raise Failure on unresolvable faults or when no services are wired. *)

val remerge : t -> unit
(** Re-copy the lower half from the current ROS root (asking the wired
    services for it) and shoot down HRT TLBs.  Charges the merge cost. *)

val page_resolves : t -> Mv_hw.Addr.t -> write:bool -> bool
(** Whether the access would succeed against the {e ROS} master table —
    i.e. the HRT copy is merely stale and a local {!remerge} fixes the
    fault with no ROS round trip. *)

val syscall : t -> name:string -> (unit -> unit) -> unit
(** The system-call stub: charges the ring-0 trap, red-zone stack pull and
    SYSRET emulation, then forwards. *)

(** {1 Exported functions (overrides)} *)

val register_func : t -> name:string -> cost:int -> (unit -> unit) -> unit
(** Export an AeroKernel function at a fresh higher-half address. *)

val func_address : t -> string -> Mv_hw.Addr.t option
val call_func : t -> name:string -> unit
(** Invoke an exported function directly (HRT context).  @raise Not_found. *)

(** {1 Statistics} *)

val stats_faults_forwarded : t -> int

val stats_silent_writes : t -> int
(** Ring-0 writes that silently bypassed a read-only PTE (only possible
    when CR0.WP is cleared — the paper's memory-corruption scenario). *)

val set_wp : t -> bool -> unit
(** Toggle CR0.WP on every HRT core (ablation support). *)

val stats_remerges : t -> int
val stats_syscalls_forwarded : t -> int

val stats_hh_fills : t -> int
(** 4 KiB demand fills of the higher-half direct map (zero when the 1 GiB
    identity map is active). *)
