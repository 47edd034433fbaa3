(** SenoraGC: a conservative mark-sweep garbage collector over simulated
    pages, in the style of the portable collector the paper's Racket port
    uses (paper, Section 5).

    The collector drives exactly the OS interactions Figures 11 and 12
    attribute to the Racket runtime's GC:

    - heap segments acquired with anonymous [mmap] and released with
      [munmap] as they empty;
    - after each collection, occupied pages are write-protected with
      [mprotect]; the first subsequent write to such a page raises SIGSEGV,
      whose handler (installed with [rt_sigaction]) unprotects the page and
      records it dirty — a page-granularity write barrier;
    - demand-paging faults on first touch of fresh heap pages.

    Objects are word-arrays with a one-word header (low 8 bits: type tag;
    upper bits: payload length in words).  Marking is conservative: any
    root or payload word that decodes as a pointer to a live object start
    is treated as a reference.

    The host arrays of an unmapped default-size segment are kept and
    reused, cleared, by the next default-size map, so the heap's host
    storage follows its high-water mark of mapped segments.  This has no
    simulated effect: every [mmap], [munmap], [mprotect], touch, store
    and work charge, and every address the mutator gets, is the same as
    with fresh arrays per map. *)

type t

type stats = {
  mutable collections : int;
  mutable bytes_allocated : int;
  mutable segments_mapped : int;
  mutable segments_unmapped : int;
  mutable segments_recycled : int;
      (** Maps whose host storage came from an unmapped segment; the rest
          of [segments_mapped] allocated fresh arrays. *)
  mutable barrier_faults : int;
  mutable objects_swept : int;
}

val create :
  Mv_guest.Env.t ->
  ?segment_pages:int ->
  ?threshold:int ->
  ?protect_after_gc:bool ->
  unit ->
  t
(** Build the collector (maps an initial segment).  [segment_pages]
    defaults to 512 (2 MiB segments — one transparent-huge-page chunk);
    [threshold] is the allocation volume between collections (default
    4 MiB). *)

val install_barrier : t -> unit
(** Register the SIGSEGV write-barrier handler ([rt_sigaction] +
    [rt_sigprocmask], as in Figure 11's startup profile). *)

val set_roots : t -> ((int -> unit) -> unit) -> unit
(** Provide the root enumerator: called at collection time with a visitor
    to be applied to every potential root word. *)

val alloc : t -> tag:int -> words:int -> init:int -> Mv_hw.Addr.t
(** Allocate an object with a payload of [words] words, each [init]; may
    run a collection first.  Returns the header address (the value
    pointer).  Every page of the object is writable on return, so writes
    to it before the next collection reach no kernel call. *)

val collect : t -> unit
(** Force a full collection. *)

(** {1 Heap access}

    The accessors raise [Invalid_argument] on an address outside every
    mapped segment, where [is_heap_pointer] answers false.  A read of a
    never-touched page takes the demand-paging fault; a write to a page
    protected after a collection takes the write-barrier fault. *)

val read_word : t -> Mv_hw.Addr.t -> int
val write_word : t -> Mv_hw.Addr.t -> int -> unit
val header : t -> Mv_hw.Addr.t -> int
(** The whole header word, tag and payload length, in one read. *)

val header_tag : t -> Mv_hw.Addr.t -> int
val header_words : t -> Mv_hw.Addr.t -> int
val is_heap_pointer : t -> int -> bool
(** Does this word decode as a pointer to a live object start? *)

(** {1 Scannable tags} *)

val set_scannable : t -> tag:int -> bool -> unit
(** Declare whether objects with [tag] have payloads containing values
    (default: not scannable). *)

(** {1 Introspection} *)

val stats : t -> stats
val live_bytes : t -> int
(** As of the last collection. *)

val mapped_bytes : t -> int
