module Env = Mv_guest.Env
module Tracer = Mv_obs.Tracer
open Mv_hw

let words_per_page = Addr.page_size / 8
let page_words_shift = Addr.page_shift - 3

(* Free blocks of fewer words than this are listed in an array indexed
   by size: frames, closures, pairs, flonums and boxes.  Larger sizes are
   rare and keep a table. *)
let small_sizes = 256

(* Page states.  Only a resident page can be protected. *)
let untouched = '\000'  (* never read or written: the next access faults *)
let writable = '\001'
let protected = '\002'  (* write-protected after a collection *)

(* Word kinds.  A mark is only ever set on an object header, and a free
   block's header is never an object header, so one byte holds all three. *)
let plain = '\000'  (* a payload word, or no object at all *)
let obj = '\001'  (* a live object's header *)
let marked = '\002'  (* an object header marked in the current collection *)
let free = '\003'  (* a free block's header; its size is in [s_words] *)

type seg = {
  s_base : Addr.t;
  s_end : Addr.t;  (* first address past the segment *)
  s_pages : int;
  s_words : int array;
  s_kinds : Bytes.t;  (* per word *)
  s_state : Bytes.t;  (* per page *)
  mutable s_bump : int;  (* first never-allocated word *)
  mutable s_live_words : int;
}

type stats = {
  mutable collections : int;
  mutable bytes_allocated : int;
  mutable segments_mapped : int;
  mutable segments_unmapped : int;
  mutable segments_recycled : int;
  mutable barrier_faults : int;
  mutable objects_swept : int;
}

type t = {
  env : Env.t;
  segment_pages : int;
  mutable segs : seg list;
      (* Newest first: the sweep and protect order.  It decides free-list
         order, hence addresses and simulated touches. *)
  mutable index : seg array;  (* the mapped segments, sorted by base *)
  (* A two-entry most-recently-used cache over [index].  Each entry is
     ints (index, base, end), so a hit or a swap stores no pointer; an
     empty entry has base = end = 0 and matches no address. *)
  mutable c0_i : int;
  mutable c0_base : int;
  mutable c0_end : int;
  mutable c1_i : int;
  mutable c1_base : int;
  mutable c1_end : int;
  small_free : (seg * int) list array;  (* block words -> blocks, LIFO *)
  large_free : (int, (seg * int) list ref) Hashtbl.t;  (* [small_sizes] words and up *)
  mutable cur : seg;
  mutable bytes_since_gc : int;
  mutable threshold : int;
  base_threshold : int;
  protect_after_gc : bool;
  mutable roots : (int -> unit) -> unit;
  scannable : bool array;  (* by tag *)
  st : stats;
  mutable live_bytes : int;
  mutable in_gc : bool;
  mutable barrier_installed : bool;
}

(* --- segments --- *)

(* [cur] until [create] maps the first segment. *)
let no_seg =
  {
    s_base = 0;
    s_end = 0;
    s_pages = 0;
    s_words = [||];
    s_kinds = Bytes.empty;
    s_state = Bytes.empty;
    s_bump = 0;
    s_live_words = 0;
  }

let clear_cache t =
  t.c0_i <- -1;
  t.c0_base <- 0;
  t.c0_end <- 0;
  t.c1_i <- -1;
  t.c1_base <- 0;
  t.c1_end <- 0

(* Map and unmap rebuild the index; its positions move, so the cache goes. *)
let reindex t =
  let index = Array.of_list t.segs in
  Array.sort (fun a b -> Int.compare a.s_base b.s_base) index;
  t.index <- index;
  clear_cache t

(* --- the storage pool ---

   The host arrays of default-size segments that no heap maps any more:
   unmapped by a sweep, or held by a heap whose process has exited.  One
   pool per domain, keyed by page count.  A machine runs on one domain,
   so no lock is needed, and every domain of a parallel sweep recycles
   its own machines' storage. *)
let pool : (int, seg list) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 2)

let pooled_list pages = Option.value (Hashtbl.find_opt (Domain.DLS.get pool) pages) ~default:[]
let pooled ~pages = List.length (pooled_list pages)
let pool_give seg = Hashtbl.replace (Domain.DLS.get pool) seg.s_pages (seg :: pooled_list seg.s_pages)

(* The new mapping's host storage: a pooled segment's arrays, cleared to
   exactly what fresh ones would hold, or fresh ones.  Which arrays back
   a segment is invisible to the guest. *)
let map_segment t pages =
  let base = t.env.Env.mmap ~len:(pages * Addr.page_size) ~prot:Mv_ros.Mm.prot_rw ~kind:"gc-heap" in
  let s_end = base + (pages * Addr.page_size) in
  let seg =
    match if pages = t.segment_pages then pooled_list pages else [] with
    | spare :: rest ->
        Hashtbl.replace (Domain.DLS.get pool) pages rest;
        Array.fill spare.s_words 0 (Array.length spare.s_words) 0;
        Bytes.fill spare.s_kinds 0 (Bytes.length spare.s_kinds) plain;
        Bytes.fill spare.s_state 0 pages untouched;
        t.st.segments_recycled <- t.st.segments_recycled + 1;
        { spare with s_base = base; s_end; s_bump = 0; s_live_words = 0 }
    | [] ->
        {
          s_base = base;
          s_end;
          s_pages = pages;
          s_words = Array.make (pages * words_per_page) 0;
          s_kinds = Bytes.make (pages * words_per_page) plain;
          s_state = Bytes.make pages untouched;
          s_bump = 0;
          s_live_words = 0;
        }
  in
  t.segs <- seg :: t.segs;
  reindex t;
  t.st.segments_mapped <- t.st.segments_mapped + 1;
  seg

(* Only the sweep unmaps, a segment with no live word that is not [cur],
   after its free blocks have left the free lists; [reindex] drops it
   from the cache.  So the pool is its only holder. *)
let unmap_segment t seg =
  t.env.Env.munmap ~addr:seg.s_base ~len:(seg.s_pages * Addr.page_size);
  t.segs <- List.filter (fun s -> s != seg) t.segs;
  reindex t;
  t.st.segments_unmapped <- t.st.segments_unmapped + 1;
  if seg.s_pages = t.segment_pages then pool_give seg

(* The process has exited and its address space is gone: hand the
   default-size storage to the pool and drop every reference to a
   segment, so a later access finds no segment and raises, and never
   reads words another heap now owns.  No [Env] call: this is host
   bookkeeping, with no simulated effect. *)
let release t =
  List.iter (fun seg -> if seg.s_pages = t.segment_pages then pool_give seg) t.segs;
  t.segs <- [];
  t.index <- [||];
  clear_cache t;
  t.cur <- no_seg;
  Array.fill t.small_free 0 small_sizes [];
  Hashtbl.reset t.large_free

(* 512 pages = 2 MiB: exactly one huge-page chunk, so heap segments promote
   to 2M leaves under the transparent-huge-page path in Mm. *)
let create env ?(segment_pages = 512) ?(threshold = 4 * 1024 * 1024) ?(protect_after_gc = true)
    () =
  let st =
    {
      collections = 0;
      bytes_allocated = 0;
      segments_mapped = 0;
      segments_unmapped = 0;
      segments_recycled = 0;
      barrier_faults = 0;
      objects_swept = 0;
    }
  in
  let t =
    {
      env;
      segment_pages;
      segs = [];
      index = [||];
      c0_i = -1;
      c0_base = 0;
      c0_end = 0;
      c1_i = -1;
      c1_base = 0;
      c1_end = 0;
      small_free = Array.make small_sizes [];
      large_free = Hashtbl.create 8;
      cur = no_seg;  (* set below *)
      bytes_since_gc = 0;
      threshold;
      base_threshold = threshold;
      protect_after_gc;
      roots = (fun _ -> ());
      scannable = Array.make 256 false;
      st;
      live_bytes = 0;
      in_gc = false;
      barrier_installed = false;
    }
  in
  let seg = map_segment t segment_pages in
  t.cur <- seg;
  Mv_ros.Process.add_exit_hook env.Env.proc (fun _ -> release t);
  t

let set_roots t fn = t.roots <- fn
let set_scannable t ~tag flag = t.scannable.(tag) <- flag

(* --- access ---

   The accessors are inlined into their callers (across modules in the
   release profile): a hit in the first cache entry is a range test and
   a few loads.  The cache miss, the demand-paging touch and the write
   fault are calls, out of line. *)

(* Index of the segment holding [addr], or -1: the last segment whose
   base is at most [addr], if [addr] lies below its end. *)
let bisect index addr =
  let lo = ref 0 and hi = ref (Array.length index) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if index.(mid).s_base <= addr then lo := mid + 1 else hi := mid
  done;
  let i = !lo - 1 in
  if i >= 0 && addr < index.(i).s_end then i else -1

(* Make (i, base, end) the first cache entry; the old first entry
   becomes the second.  Every store is an int. *)
let push_entry t i base end_ =
  t.c1_i <- t.c0_i;
  t.c1_base <- t.c0_base;
  t.c1_end <- t.c0_end;
  t.c0_i <- i;
  t.c0_base <- base;
  t.c0_end <- end_

(* Called when the first cache entry misses [addr]: bring the segment
   holding [addr] into it from the second entry (a swap) or from a
   bisection, or answer false when no segment holds [addr]. *)
let promote t addr =
  if addr >= t.c1_base && addr < t.c1_end then begin
    push_entry t t.c1_i t.c1_base t.c1_end;
    true
  end
  else
    let i = bisect t.index addr in
    i >= 0
    &&
    let seg = t.index.(i) in
    push_entry t i seg.s_base seg.s_end;
    true

let[@inline never] miss t addr =
  if not (promote t addr) then invalid_arg (Printf.sprintf "Sgc: address %x outside heap" addr)

(* Point the first cache entry at the segment holding [addr]. *)
let[@inline] seek t addr = if not (addr >= t.c0_base && addr < t.c0_end) then miss t addr

let seg_of t addr =
  seek t addr;
  t.index.(t.c0_i)

(* First access to an untouched page: demand paging. *)
let[@inline never] touch t seg widx =
  t.env.Env.touch (seg.s_base + (widx lsl 3));
  Bytes.set seg.s_state (widx lsr page_words_shift) writable

(* A write to a page that is not writable: demand paging on first touch,
   a write-barrier SIGSEGV when the page was protected after a
   collection (the handler unprotects it and counts the fault). *)
let[@inline never] write_fault t seg widx =
  t.env.Env.store (seg.s_base + (widx lsl 3));
  Bytes.set seg.s_state (widx lsr page_words_shift) writable

let[@inline] ensure_writable t seg widx =
  if Bytes.get seg.s_state (widx lsr page_words_shift) <> writable then write_fault t seg widx

(* [write_word] and [read_word] read the segment and word index before
   calling out: a fault may run the barrier handler, which moves the
   cache. *)
let[@inline] write_word t addr v =
  seek t addr;
  let seg = t.index.(t.c0_i) and widx = (addr - t.c0_base) lsr 3 in
  ensure_writable t seg widx;
  seg.s_words.(widx) <- v

let[@inline] read_word t addr =
  seek t addr;
  let seg = t.index.(t.c0_i) and widx = (addr - t.c0_base) lsr 3 in
  if Bytes.get seg.s_state (widx lsr page_words_shift) = untouched then touch t seg widx;
  seg.s_words.(widx)

let[@inline] header t addr =
  seek t addr;
  t.index.(t.c0_i).s_words.((addr - t.c0_base) lsr 3)

let[@inline] header_tag t addr = header t addr land 0xFF
let[@inline] header_words t addr = header t addr lsr 8

let[@inline] is_object kind = kind = obj || kind = marked

let is_heap_pointer t v =
  v land 7 = 0 && v > 0
  && ((v >= t.c0_base && v < t.c0_end) || promote t v)
  &&
  let seg = t.index.(t.c0_i) and widx = (v - t.c0_base) lsr 3 in
  widx < seg.s_bump && is_object (Bytes.get seg.s_kinds widx)

(* --- write barrier --- *)

let install_barrier t =
  t.env.Env.sigaction Mv_ros.Signal.Sigsegv
    (Mv_ros.Signal.Handler
       (fun info ->
         let addr = info.Mv_ros.Signal.si_addr in
         if not ((addr >= t.c0_base && addr < t.c0_end) || promote t addr) then
           failwith (Printf.sprintf "Sgc: segfault outside heap at %x" addr);
         let seg = t.index.(t.c0_i) in
         let pr = Addr.page_of addr - Addr.page_of seg.s_base in
         if Bytes.get seg.s_state pr = protected then begin
           t.env.Env.mprotect ~addr:(Addr.align_down addr) ~len:Addr.page_size
             ~prot:Mv_ros.Mm.prot_rw;
           Bytes.set seg.s_state pr writable;
           t.st.barrier_faults <- t.st.barrier_faults + 1
         end
         else failwith "Sgc: SIGSEGV on unprotected heap page"));
  (* The runtime briefly masks SIGSEGV while installing (glibc does the
     equivalent dance; visible as rt_sigprocmask in Figure 11). *)
  t.env.Env.sigprocmask ~block:true Mv_ros.Signal.Sigsegv;
  t.env.Env.sigprocmask ~block:false Mv_ros.Signal.Sigsegv;
  t.barrier_installed <- true

(* --- collection --- *)

let take_free t total =
  if total < small_sizes then
    match t.small_free.(total) with
    | block :: rest ->
        t.small_free.(total) <- rest;
        Some block
    | [] -> None
  else
    match Hashtbl.find_opt t.large_free total with
    | Some ({ contents = block :: rest } as cell) ->
        cell := rest;
        Some block
    | Some _ | None -> None

let add_free t seg widx total =
  Bytes.set seg.s_kinds widx free;
  seg.s_words.(widx) <- total;
  if total < small_sizes then t.small_free.(total) <- (seg, widx) :: t.small_free.(total)
  else
    match Hashtbl.find_opt t.large_free total with
    | Some cell -> cell := (seg, widx) :: !cell
    | None -> Hashtbl.replace t.large_free total (ref [ (seg, widx) ])

(* Drop the free blocks that lie in [seg], keeping each size's order. *)
let drop_free_in t seg =
  let keep = List.filter (fun (s, _) -> s != seg) in
  Array.map_inplace keep t.small_free;
  Hashtbl.iter (fun _ cell -> cell := keep !cell) t.large_free

let mark_phase t =
  let work = ref 0 in
  let stack = Stack.create () in
  let visit v =
    if is_heap_pointer t v then begin
      let seg = seg_of t v in
      let widx = (v - seg.s_base) / 8 in
      if Bytes.get seg.s_kinds widx = obj then begin
        Bytes.set seg.s_kinds widx marked;
        Stack.push (seg, widx) stack
      end
    end
  in
  t.roots visit;
  while not (Stack.is_empty stack) do
    let seg, widx = Stack.pop stack in
    let header = seg.s_words.(widx) in
    let tag = header land 0xFF and words = header lsr 8 in
    work := !work + 12 + words;
    if t.scannable.(tag) then
      for i = 1 to words do
        visit seg.s_words.(widx + i)
      done
  done;
  t.env.Env.work !work

let sweep_phase t =
  Array.fill t.small_free 0 small_sizes [];
  Hashtbl.reset t.large_free;
  let work = ref 0 in
  let live_words_total = ref 0 in
  let dead_segs = ref [] in
  List.iter
    (fun seg ->
      seg.s_live_words <- 0;
      let widx = ref 0 in
      let pending_free_start = ref (-1) in
      let flush_free upto =
        if !pending_free_start >= 0 then begin
          add_free t seg !pending_free_start (upto - !pending_free_start);
          pending_free_start := -1
        end
      in
      while !widx < seg.s_bump do
        let i = !widx in
        let kind = Bytes.get seg.s_kinds i in
        if is_object kind then begin
          let header = seg.s_words.(i) in
          let total = 1 + (header lsr 8) in
          t.st.objects_swept <- t.st.objects_swept + 1;
          work := !work + 4;
          if kind = marked then begin
            Bytes.set seg.s_kinds i obj;
            flush_free i;
            seg.s_live_words <- seg.s_live_words + total
          end
          else begin
            (* Dead: fold into the pending free run. *)
            Bytes.set seg.s_kinds i plain;
            if !pending_free_start < 0 then pending_free_start := i
          end;
          widx := i + total
        end
        else if kind = free then begin
          let total = seg.s_words.(i) in
          Bytes.set seg.s_kinds i plain;
          if !pending_free_start < 0 then pending_free_start := i;
          widx := i + total
        end
        else begin
          (* Hole created by a bump-trim; treat as free space. *)
          if !pending_free_start < 0 then pending_free_start := i;
          widx := i + 1
        end
      done;
      (* Trailing free run: give it back to the bump pointer. *)
      if !pending_free_start >= 0 then seg.s_bump <- !pending_free_start;
      pending_free_start := -1;
      live_words_total := !live_words_total + seg.s_live_words;
      if seg.s_live_words = 0 && seg != t.cur then dead_segs := seg :: !dead_segs)
    t.segs;
  t.env.Env.work !work;
  (* Empty segments go back to the OS: the frequent small munmaps of
     Figure 12. *)
  List.iter
    (fun seg ->
      drop_free_in t seg;
      unmap_segment t seg)
    !dead_segs;
  t.live_bytes <- !live_words_total * 8

let protect_phase t =
  List.iter
    (fun seg ->
      let occupied_pages = (seg.s_bump + words_per_page - 1) / words_per_page in
      let resident_occupied = min occupied_pages seg.s_pages in
      if resident_occupied > 0 && seg.s_live_words > 0 then begin
        t.env.Env.mprotect ~addr:seg.s_base ~len:(resident_occupied * Addr.page_size)
          ~prot:Mv_ros.Mm.prot_r;
        for p = 0 to resident_occupied - 1 do
          if Bytes.get seg.s_state p <> untouched then Bytes.set seg.s_state p protected
        done
      end)
    t.segs

let obs t = t.env.Env.kernel.Mv_ros.Kernel.machine.Mv_engine.Machine.obs

let collect t =
  if not t.in_gc then begin
    t.in_gc <- true;
    Tracer.with_span (obs t) ~name:"gc:collect" ~cat:"sgc" (fun () ->
        t.st.collections <- t.st.collections + 1;
        t.env.Env.work 2_500;
        Tracer.with_span (obs t) ~name:"gc:mark" ~cat:"sgc" (fun () -> mark_phase t);
        Tracer.with_span (obs t) ~name:"gc:sweep" ~cat:"sgc" (fun () -> sweep_phase t);
        (* Write-protection is only safe once the SIGSEGV handler exists. *)
        if t.protect_after_gc && t.barrier_installed then
          Tracer.with_span (obs t) ~name:"gc:protect" ~cat:"sgc" (fun () ->
              protect_phase t);
        t.bytes_since_gc <- 0;
        t.threshold <- max t.base_threshold t.live_bytes);
    t.in_gc <- false
  end

(* --- allocation --- *)

let alloc t ~tag ~words ~init =
  if t.bytes_since_gc >= t.threshold then collect t;
  let total = words + 1 in
  t.bytes_since_gc <- t.bytes_since_gc + (total * 8);
  t.st.bytes_allocated <- t.st.bytes_allocated + (total * 8);
  t.env.Env.work 22;
  let seg, widx =
    match take_free t total with
    | Some (seg, widx) -> (seg, widx)
    | None ->
        let seg =
          if t.cur.s_bump + total <= Array.length t.cur.s_words then t.cur
          else begin
            let pages = max t.segment_pages ((total * 8 / Addr.page_size) + 1) in
            let seg = map_segment t pages in
            t.cur <- seg;
            seg
          end
        in
        let widx = seg.s_bump in
        seg.s_bump <- seg.s_bump + total;
        (seg, widx)
  in
  (* Touch every page the object spans (demand paging / write barrier). *)
  let first_page = widx lsr page_words_shift
  and last_page = (widx + total - 1) lsr page_words_shift in
  for p = first_page to last_page do
    ensure_writable t seg (p * words_per_page + if p = first_page then widx mod words_per_page else 0)
  done;
  Array.fill seg.s_words (widx + 1) words init;
  seg.s_words.(widx) <- (words lsl 8) lor tag;
  Bytes.set seg.s_kinds widx obj;
  seg.s_base + (widx * 8)

let stats t = t.st
let live_bytes t = t.live_bytes
let mapped_bytes t = List.fold_left (fun acc s -> acc + (s.s_pages * Addr.page_size)) 0 t.segs
