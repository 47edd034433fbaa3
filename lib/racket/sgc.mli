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
    is treated as a reference. *)

type t

type stats = {
  mutable collections : int;
  mutable bytes_allocated : int;
  mutable segments_mapped : int;
  mutable segments_unmapped : int;
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

val alloc : t -> tag:int -> words:int -> Mv_hw.Addr.t
(** Allocate an object with a zeroed payload of [words] words; may run a
    collection first.  Returns the header address (the value pointer). *)

val collect : t -> unit
(** Force a full collection. *)

(** {1 Heap access} *)

val read_word : t -> Mv_hw.Addr.t -> int
val write_word : t -> Mv_hw.Addr.t -> int -> unit
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
val dirty_pages : t -> int
(** Pages unprotected by the write barrier since the last collection. *)
