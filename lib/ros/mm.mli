(** Process address spaces: VMAs, demand paging, copy-on-write, and page
    protection.

    This implements the Linux-ABI memory behaviour the hybridized Racket
    runtime leans on (paper, Section 5): anonymous [mmap]/[munmap] for the
    GC heap, [mprotect] + SIGSEGV for the write barrier, lazy population
    with a shared zero page, and RSS accounting for Figure 10. *)

type prot = { pr_read : bool; pr_write : bool; pr_exec : bool }

val prot_r : prot
val prot_rw : prot
val prot_rx : prot

type vma = { v_start : int;  (** first page *) v_npages : int; v_prot : prot; v_kind : string }

type fault_outcome =
  | Fixed_minor  (** demand-paged in or COW-broken; a retry will succeed *)
  | Segv of Signal.siginfo  (** delivered to the process as SIGSEGV *)

type t

val create : Mv_engine.Machine.t -> t
(** An empty lower-half address space backed by ROS-region frames. *)

val page_table : t -> Mv_hw.Page_table.t

val add_shadow_root : t -> Mv_hw.Page_table.t -> unit
(** Declare another root (the HVM's merged AeroKernel table) as aliasing
    this address space's lower half: cores running it are included in
    range-batched shootdowns, as Linux's mm_cpumask would. *)

val mmap : t -> len:int -> prot:prot -> kind:string -> Mv_hw.Addr.t
(** Reserve an anonymous region ([len] rounded up to pages); no frames are
    allocated until touched.  With huge pages enabled, regions of 2 MiB or
    more get 2M-aligned placement so first touch can promote whole chunks
    to 2 MiB leaves.  Raises [Invalid_argument] on [len <= 0]. *)

val munmap : t -> Mv_hw.Addr.t -> len:int -> int
(** Drop every mapping overlapping the range (VMAs are split as needed);
    resident frames are freed, huge chunks straddling the boundary are
    demoted first, and one range-batched shootdown covers the whole range.
    Returns the number of PTE teardowns (a whole 2M chunk counts once). *)

val mprotect : t -> Mv_hw.Addr.t -> len:int -> prot -> int
(** Change protection over the range, splitting VMAs; resident PTEs are
    updated in place (visible to every core caching them), a fully-covered
    2M leaf in one edit.  One range-batched shootdown covers the range.
    Returns the number of PTEs whose flags changed. *)

val add_fixed : t -> addr:Mv_hw.Addr.t -> len:int -> prot:prot -> kind:string -> unit
(** Install a VMA at a fixed address (program image, stack).  Raises
    [Invalid_argument] if it overlaps an existing VMA. *)

val brk : t -> Mv_hw.Addr.t option -> Mv_hw.Addr.t
(** [brk t None] reads the current break; [brk t (Some a)] grows or shrinks
    the data segment and returns the new break. *)

val handle_fault : t -> Mv_hw.Addr.t -> write:bool -> fault_outcome
(** The kernel page-fault handler: demand-page, break COW, or classify as
    SIGSEGV.  Charges fault-service cycles to the current thread. *)

val find_vma : t -> Mv_hw.Addr.t -> vma option
val is_resident : t -> Mv_hw.Addr.t -> bool
val rss_kb : t -> int

val maxrss_kb : t -> int
(** High-water mark of the resident set. *)

val vma_count : t -> int
val mapped_bytes : t -> int

(** Huge-page / shootdown statistics (memory-path bench + rusage): *)

val stats_huge_promotions : t -> int
val stats_huge_splits : t -> int
val stats_shootdowns : t -> int
val stats_shootdown_cycles : t -> int

val release : t -> unit
(** Free every resident frame (process teardown). *)
