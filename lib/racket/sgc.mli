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

    {b Recycled storage.}  Each OCaml domain keeps one pool of segment
    host storage, keyed by page count.  A heap puts a default-size
    ([segment_pages]) segment's arrays there when a sweep unmaps it, and
    all of its default-size segments' arrays when its process exits
    (see {!mapped_bytes}); a default-size map takes arrays from the pool
    and clears them to exactly what fresh ones hold, or allocates fresh
    ones when the pool has none.  Larger single-object segments are left
    to the OCaml GC.  So the pool plus the default-size segments that
    the domain's live heaps map never exceed the most those heaps had
    mapped at once, and a finished run's storage backs the next run on
    the same domain.  This has no simulated effect: every [mmap],
    [munmap], [mprotect], touch, store and work charge, and every
    address the mutator gets, is the same as with fresh arrays per
    map. *)

type t

type stats = {
  mutable collections : int;
  mutable bytes_allocated : int;
  mutable segments_mapped : int;
  mutable segments_unmapped : int;
  mutable segments_recycled : int;
      (** Maps whose host storage came from the domain's pool, whichever
          heap unmapped or released it; the rest of [segments_mapped]
          allocated fresh arrays.  Host bookkeeping only: it depends on
          what ran on the domain before, so no report prints it. *)
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
    4 MiB).  The heap hooks its process's exit ({!Mv_ros.Process.add_exit_hook}
    on [env]'s process) to release its storage. *)

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
(** The bytes of the segments the heap maps.

    When its process exits, the heap releases its storage: its
    default-size segments' arrays go to the domain's pool, and it forgets
    every segment and free block, without any [Env] call (the exit has
    already dropped the address space).  Afterwards [mapped_bytes] is 0,
    [is_heap_pointer] is false for every word, and every accessor raises
    [Invalid_argument], so no access reads storage another heap now
    owns.  [stats] and [live_bytes] keep their values. *)

val pooled : pages:int -> int
(** How many [pages]-page segments' host storage the calling domain's
    pool holds. *)
