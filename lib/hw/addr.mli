(** x86-64 canonical virtual addresses.

    The hardware uses 48 significant bits; bits 48..63 are a sign extension
    of bit 47.  We represent an address by its 48-bit value in a native
    OCaml [int] (so the "higher half" starts at [0x8000_0000_0000] here and
    corresponds to [0xffff_8000_0000_0000] in the canonical form).  The
    canonical split is what makes the Multiverse merged address space work:
    the ROS kernel and the HRT both live in the higher half, user code in
    the lower half (paper, Section 4.4 and Figure 3). *)

type t = int
(** 48-bit virtual address, [0 <= a < 2^48]. *)

val page_size : int (* 4096 *)
val page_shift : int (* 12 *)
val word_size : int (* 8 *)

val page_size_2m : int (* 2 MiB — a PD-level large page *)
val page_size_1g : int (* 1 GiB — a PDPT-level large page *)
val page_shift_2m : int (* 21 *)
val page_shift_1g : int (* 30 *)

val pages_per_2m : int (* 512 *)
val pages_per_1g : int (* 512 * 512 *)

val lower_half_limit : t
(** First non-canonical address after the lower half: [2^47]. *)

val higher_half_base : t
(** Lowest higher-half address: [2^47] in 48-bit form. *)

val space_limit : t
(** [2^48]. *)

val is_lower_half : t -> bool
val is_higher_half : t -> bool

val page_of : t -> int
(** Page number containing the address. *)

val base_of_page : int -> t
val page_offset : t -> int
val align_down : t -> t
val align_up : t -> t
val is_page_aligned : t -> bool
val is_2m_aligned : t -> bool
val is_1g_aligned : t -> bool

val pml4_index : t -> int
(** Bits 39..47 — the top-level page-table slot (0..511).  Lower-half
    addresses map to slots 0..255; these are the 256 entries Multiverse
    copies during an address-space merger. *)

val pdpt_index : t -> int
val pd_index : t -> int
val pt_index : t -> int

val of_indices : pml4:int -> pdpt:int -> pd:int -> pt:int -> offset:int -> t

val canonical64 : t -> int64
(** Sign-extended 64-bit form for display. *)

val pp : Format.formatter -> t -> unit
(** Hex rendering of the canonical 64-bit form. *)
