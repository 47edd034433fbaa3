(** Per-core paging-structure (page-walk) caches.

    Real walkers cache interior PDPTE/PDE entries so a TLB miss under an
    already-walked region pays 1–2 memory accesses instead of 4 (Intel SDM
    4.10.3).  [Mmu.access] probes this before charging walk levels and
    populates it after each walk; it is flushed on CR3 load and — being a
    non-coherent cache — conservatively on shootdowns. *)

type t

val create : unit -> t
(** An empty cache of 16 PDPTE and 32 PDE entries (FIFO eviction). *)

val skip : t -> Addr.t -> int
(** Walk levels a miss at this address may skip: 3 (PDE cached), 2 (PDPTE
    cached), or 0.  Counts a hit or a miss. *)

val note : t -> Addr.t -> levels:int -> unit
(** Record the structures a completed walk of [levels] traversed. *)

val flush : t -> unit
val hits : t -> int
val misses : t -> int
val reset_stats : t -> unit
