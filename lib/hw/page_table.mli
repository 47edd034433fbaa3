(** Four-level x86-64 page tables (PML4 / PDPT / PD / PT).

    The structure matters for Multiverse: an address-space merger copies the
    first 256 PML4 entries of the ROS process's root into the HRT's root
    (paper, Section 4.4).  Because only the {e top-level} slots are copied,
    the sub-trees are shared; later mappings made by the ROS below an
    already-copied slot become visible to the HRT immediately, while a ROS
    change to a top-level slot itself leaves the HRT's copy stale — which
    the AeroKernel detects as a repeated page fault and repairs by
    re-merging.  This module models exactly that sharing. *)

type flags = int

val f_present : flags
val f_writable : flags
val f_user : flags
val f_nx : flags
val f_cow : flags
val has : flags -> flags -> bool

type pte = { mutable frame : int; mutable pte_flags : flags }
(** Leaf entry.  A leaf installed at PT level maps one 4 KiB page; large
    pages install the same record at PD (2 MiB) or PDPT (1 GiB) level, with
    [frame] naming the first 4 KiB frame of the contiguous physical run. *)

type size = S4k | S2m | S1g
(** Leaf granularity: the level the leaf lives at. *)

val pages_of_size : size -> int
(** 1, 512, or 512*512 — 4 KiB pages covered by one leaf of this size. *)

val pp_size : Format.formatter -> size -> unit

type t
(** A root page table (what CR3 points to). *)

val create : unit -> t

val id : t -> int
(** Unique identity, used as the simulated CR3 value. *)

val map : t -> Addr.t -> frame:int -> flags:flags -> unit
(** Install a 4 KiB leaf mapping, building intermediate levels as needed.
    A covering huge leaf is first split into next-size-down children (the
    siblings keep the inherited frame run and flags).  Requires a
    page-aligned address. *)

val map_size : t -> Addr.t -> size:size -> frame:int -> flags:flags -> unit
(** Install a leaf of the given granularity.  A 2M/1G map replaces any
    existing finer-grained sub-tree under its slot.  Requires the address
    aligned to the leaf size. *)

val unmap : t -> Addr.t -> bool
(** Remove a 4 KiB leaf mapping, splitting a covering huge leaf so only
    this page disappears; [false] if nothing was mapped. *)

val unmap_leaf : t -> Addr.t -> size option
(** Remove whatever leaf covers the address {e whole} (no splitting);
    returns its size, or [None] if unmapped. *)

val protect : t -> Addr.t -> flags:flags -> bool
(** Replace the flags of the 4 KiB leaf at the address, splitting a
    covering huge leaf so siblings keep their flags; [false] if unmapped. *)

val protect_leaf : t -> Addr.t -> flags:flags -> size option
(** Replace the flags of the covering leaf whatever its size (no split);
    returns the leaf size, or [None] if unmapped. *)

val walk : t -> Addr.t -> pte option * int
(** [(entry, levels)] where [levels] is the number of levels traversed
    before stopping (for TLB-miss cost accounting).  A 1 GiB leaf resolves
    in 2 levels, a 2 MiB leaf in 3, a 4 KiB leaf in 4. *)

val walk_sized : t -> Addr.t -> (pte * size) option * int
(** Like {!walk} but also reports the granularity of the resolved leaf. *)

val lookup : t -> Addr.t -> pte option

val copy_lower_half : src:t -> dst:t -> int
(** The Multiverse merger: copy PML4 slots 0..255 from [src] to [dst]
    (sharing sub-trees).  Returns the number of populated slots copied. *)

val clear_lower_half : t -> unit

val lower_half_generation : t -> int
(** Incremented whenever a lower-half PML4 {e slot} of this root changes
    (a new sub-tree appears or one is removed).  A merger snapshots the
    source generation; staleness of a previous merge is observable as the
    generations diverging. *)

val count_mapped : t -> int
(** Number of leaf mappings (of any size) reachable from this root. *)

val iter_mappings : t -> (Addr.t -> pte -> unit) -> unit
(** Visit every leaf (any size) once, with its base address. *)

val iter_leaves : t -> (Addr.t -> size -> pte -> unit) -> unit
