module Env = Mv_guest.Env
module Tracer = Mv_obs.Tracer
open Mv_hw

let words_per_page = Addr.page_size / 8

type seg = {
  s_base : Addr.t;
  s_pages : int;
  s_words : int array;
  s_starts : Bytes.t;  (* per word: 1 = live object header *)
  s_frees : Bytes.t;  (* per word: 1 = free block header (size in s_words) *)
  s_marks : Bytes.t;  (* per word: mark bit for object headers *)
  s_resident : Bytes.t;  (* per page *)
  s_protected : Bytes.t;  (* per page *)
  mutable s_bump : int;  (* first never-allocated word *)
  mutable s_live_words : int;
}

type stats = {
  mutable collections : int;
  mutable bytes_allocated : int;
  mutable segments_mapped : int;
  mutable segments_unmapped : int;
  mutable barrier_faults : int;
  mutable objects_swept : int;
}

type t = {
  env : Env.t;
  segment_pages : int;
  mutable segs : seg list;
  page_map : (int, seg) Hashtbl.t;
  flists : (int, (seg * int) list ref) Hashtbl.t;  (* block words -> blocks *)
  mutable cur : seg;
  mutable bytes_since_gc : int;
  mutable threshold : int;
  base_threshold : int;
  protect_after_gc : bool;
  mutable roots : (int -> unit) -> unit;
  scannable : bool array;  (* by tag *)
  st : stats;
  mutable live_bytes : int;
  mutable dirty : int;
  mutable in_gc : bool;
  mutable barrier_installed : bool;
}

(* --- segments --- *)

let map_segment t pages =
  let base = t.env.Env.mmap ~len:(pages * Addr.page_size) ~prot:Mv_ros.Mm.prot_rw ~kind:"gc-heap" in
  let seg =
    {
      s_base = base;
      s_pages = pages;
      s_words = Array.make (pages * words_per_page) 0;
      s_starts = Bytes.make (pages * words_per_page) '\000';
      s_frees = Bytes.make (pages * words_per_page) '\000';
      s_marks = Bytes.make (pages * words_per_page) '\000';
      s_resident = Bytes.make pages '\000';
      s_protected = Bytes.make pages '\000';
      s_bump = 0;
      s_live_words = 0;
    }
  in
  t.segs <- seg :: t.segs;
  for i = 0 to pages - 1 do
    Hashtbl.replace t.page_map (Addr.page_of base + i) seg
  done;
  t.st.segments_mapped <- t.st.segments_mapped + 1;
  seg

let unmap_segment t seg =
  t.env.Env.munmap ~addr:seg.s_base ~len:(seg.s_pages * Addr.page_size);
  for i = 0 to seg.s_pages - 1 do
    Hashtbl.remove t.page_map (Addr.page_of seg.s_base + i)
  done;
  t.segs <- List.filter (fun s -> s != seg) t.segs;
  t.st.segments_unmapped <- t.st.segments_unmapped + 1

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
      barrier_faults = 0;
      objects_swept = 0;
    }
  in
  let t =
    {
      env;
      segment_pages;
      segs = [];
      page_map = Hashtbl.create 256;
      flists = Hashtbl.create 32;
      cur = Obj.magic 0;  (* set below *)
      bytes_since_gc = 0;
      threshold;
      base_threshold = threshold;
      protect_after_gc;
      roots = (fun _ -> ());
      scannable = Array.make 256 false;
      st;
      live_bytes = 0;
      dirty = 0;
      in_gc = false;
      barrier_installed = false;
    }
  in
  let seg = map_segment t segment_pages in
  t.cur <- seg;
  t

let set_roots t fn = t.roots <- fn
let set_scannable t ~tag flag = t.scannable.(tag) <- flag

(* --- access --- *)

let locate t addr =
  match Hashtbl.find_opt t.page_map (Addr.page_of addr) with
  | Some seg -> (seg, (addr - seg.s_base) / 8)
  | None -> invalid_arg (Printf.sprintf "Sgc: address %x outside heap" addr)

let page_rel _seg widx = widx / words_per_page

(* Make the page holding word [widx] writable, paying the appropriate
   fault: demand paging on first touch, a write-barrier SIGSEGV when the
   page was protected after a collection. *)
let ensure_writable t seg widx =
  let pr = page_rel seg widx in
  if Bytes.get seg.s_resident pr = '\000' || Bytes.get seg.s_protected pr = '\001' then begin
    t.env.Env.store (seg.s_base + (widx * 8));
    Bytes.set seg.s_resident pr '\001';
    (* If the page was protected, the SIGSEGV handler has unprotected it
       and counted the barrier fault. *)
    Bytes.set seg.s_protected pr '\000'
  end

let write_word t addr v =
  let seg, widx = locate t addr in
  ensure_writable t seg widx;
  seg.s_words.(widx) <- v

let read_word t addr =
  let seg, widx = locate t addr in
  let pr = page_rel seg widx in
  if Bytes.get seg.s_resident pr = '\000' then begin
    t.env.Env.touch (seg.s_base + (widx * 8));
    Bytes.set seg.s_resident pr '\001'
  end;
  seg.s_words.(widx)

let header_of t addr =
  let seg, widx = locate t addr in
  seg.s_words.(widx)

let header_tag t addr = header_of t addr land 0xFF
let header_words t addr = header_of t addr lsr 8

let is_heap_pointer t v =
  v land 7 = 0 && v > 0
  &&
  match Hashtbl.find_opt t.page_map (Addr.page_of v) with
  | Some seg ->
      let widx = (v - seg.s_base) / 8 in
      widx < seg.s_bump && Bytes.get seg.s_starts widx = '\001'
  | None -> false

(* --- write barrier --- *)

let install_barrier t =
  t.env.Env.sigaction Mv_ros.Signal.Sigsegv
    (Mv_ros.Signal.Handler
       (fun info ->
         let addr = info.Mv_ros.Signal.si_addr in
         match Hashtbl.find_opt t.page_map (Addr.page_of addr) with
         | Some seg ->
             let pr = Addr.page_of addr - Addr.page_of seg.s_base in
             if Bytes.get seg.s_protected pr = '\001' then begin
               t.env.Env.mprotect ~addr:(Addr.align_down addr) ~len:Addr.page_size
                 ~prot:Mv_ros.Mm.prot_rw;
               Bytes.set seg.s_protected pr '\000';
               t.st.barrier_faults <- t.st.barrier_faults + 1;
               t.dirty <- t.dirty + 1
             end
             else failwith "Sgc: SIGSEGV on unprotected heap page"
         | None -> failwith (Printf.sprintf "Sgc: segfault outside heap at %x" addr)));
  (* The runtime briefly masks SIGSEGV while installing (glibc does the
     equivalent dance; visible as rt_sigprocmask in Figure 11). *)
  t.env.Env.sigprocmask ~block:true Mv_ros.Signal.Sigsegv;
  t.env.Env.sigprocmask ~block:false Mv_ros.Signal.Sigsegv;
  t.barrier_installed <- true

(* --- collection --- *)

let take_free t total =
  match Hashtbl.find_opt t.flists total with
  | Some ({ contents = (seg, widx) :: rest } as cell) ->
      cell := rest;
      Some (seg, widx)
  | Some _ | None -> None

let add_free t seg widx total =
  Bytes.set seg.s_frees widx '\001';
  seg.s_words.(widx) <- total;
  match Hashtbl.find_opt t.flists total with
  | Some cell -> cell := (seg, widx) :: !cell
  | None -> Hashtbl.replace t.flists total (ref [ (seg, widx) ])

let mark_phase t =
  let work = ref 0 in
  let stack = Stack.create () in
  let visit v =
    if is_heap_pointer t v then begin
      let seg, widx = locate t v in
      if Bytes.get seg.s_marks widx = '\000' then begin
        Bytes.set seg.s_marks widx '\001';
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
  Hashtbl.reset t.flists;
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
        if Bytes.get seg.s_starts i = '\001' then begin
          let header = seg.s_words.(i) in
          let total = 1 + (header lsr 8) in
          t.st.objects_swept <- t.st.objects_swept + 1;
          work := !work + 4;
          if Bytes.get seg.s_marks i = '\001' then begin
            Bytes.set seg.s_marks i '\000';
            flush_free i;
            seg.s_live_words <- seg.s_live_words + total
          end
          else begin
            (* Dead: fold into the pending free run. *)
            Bytes.set seg.s_starts i '\000';
            if !pending_free_start < 0 then pending_free_start := i
          end;
          widx := i + total
        end
        else if Bytes.get seg.s_frees i = '\001' then begin
          let total = seg.s_words.(i) in
          Bytes.set seg.s_frees i '\000';
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
      (* Drop free blocks that point into the doomed segment. *)
      Hashtbl.iter
        (fun _ cell -> cell := List.filter (fun (s, _) -> s != seg) !cell)
        t.flists;
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
          if Bytes.get seg.s_resident p = '\001' then Bytes.set seg.s_protected p '\001'
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
        t.dirty <- 0;
        t.threshold <- max t.base_threshold t.live_bytes);
    t.in_gc <- false
  end

(* --- allocation --- *)

let zero_payload seg widx total =
  Array.fill seg.s_words widx total 0

let alloc t ~tag ~words =
  if t.bytes_since_gc >= t.threshold then collect t;
  let total = words + 1 in
  t.bytes_since_gc <- t.bytes_since_gc + (total * 8);
  t.st.bytes_allocated <- t.st.bytes_allocated + (total * 8);
  t.env.Env.work 22;
  let seg, widx =
    match take_free t total with
    | Some (seg, widx) ->
        Bytes.set seg.s_frees widx '\000';
        (seg, widx)
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
  let first_page = page_rel seg widx and last_page = page_rel seg (widx + total - 1) in
  for p = first_page to last_page do
    ensure_writable t seg (p * words_per_page + if p = first_page then widx mod words_per_page else 0)
  done;
  zero_payload seg widx total;
  seg.s_words.(widx) <- (words lsl 8) lor tag;
  Bytes.set seg.s_starts widx '\001';
  seg.s_base + (widx * 8)

let stats t = t.st
let live_bytes t = t.live_bytes
let mapped_bytes t = List.fold_left (fun acc s -> acc + (s.s_pages * Addr.page_size)) 0 t.segs
let dirty_pages t = t.dirty
