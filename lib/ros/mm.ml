open Mv_hw
module Machine = Mv_engine.Machine
module IntMap = Map.Make (Int)

type prot = { pr_read : bool; pr_write : bool; pr_exec : bool }

let prot_r = { pr_read = true; pr_write = false; pr_exec = false }
let prot_rw = { pr_read = true; pr_write = true; pr_exec = false }
let prot_rx = { pr_read = true; pr_write = false; pr_exec = true }

type vma = { v_start : int; v_npages : int; v_prot : prot; v_kind : string }

type fault_outcome = Fixed_minor | Segv of Signal.siginfo

type t = {
  machine : Machine.t;
  pt : Page_table.t;
  mutable vmas : vma IntMap.t;  (* keyed by first page *)
  frames : (int, int) Hashtbl.t;  (* resident via 4K PTE: page -> frame *)
  huge_chunks : (int, int) Hashtbl.t;
      (* resident via a 2M leaf: head page -> frame of the contiguous run.
         A page is resident iff it has a [frames] entry or its 2M-aligned
         head has a [huge_chunks] entry — never both. *)
  mutable mmap_next : int;  (* next page for anonymous mmap, grows down *)
  mutable brk_base : int;  (* page *)
  mutable brk_end : Addr.t;
  mutable rss_pages : int;
  mutable maxrss_pages : int;
  mutable n_huge_promotions : int;
  mutable n_huge_splits : int;
  mutable n_shootdowns : int;  (* range-batched, counted per remote core *)
  mutable shootdown_cycles : int;
  mutable shadow_roots : int list;
      (* {!Page_table.id}s of other roots aliasing our lower half — the
         HVM's merged AeroKernel table.  Cores running one of these must
         be shot down too (Linux's mm_cpumask would include them). *)
}

let brk_base_addr = 0x0200_0000
let mmap_top_page = Addr.page_of 0x7f80_0000_0000

let create machine =
  {
    machine;
    pt = Page_table.create ();
    vmas = IntMap.empty;
    frames = Hashtbl.create 1024;
    huge_chunks = Hashtbl.create 64;
    mmap_next = mmap_top_page;
    brk_base = Addr.page_of brk_base_addr;
    brk_end = brk_base_addr;
    rss_pages = 0;
    maxrss_pages = 0;
    n_huge_promotions = 0;
    n_huge_splits = 0;
    n_shootdowns = 0;
    shootdown_cycles = 0;
    shadow_roots = [];
  }

let huge_enabled t = t.machine.Machine.config.huge_pages
let chunk_head page = page land lnot (Addr.pages_per_2m - 1)

let page_table t = t.pt

let add_shadow_root t pt =
  let id = Page_table.id pt in
  if not (List.mem id t.shadow_roots) then t.shadow_roots <- id :: t.shadow_roots

let pte_flags_of_prot prot ~cow =
  let f = Page_table.f_present lor Page_table.f_user in
  let f = if prot.pr_write && not cow then f lor Page_table.f_writable else f in
  let f = if not prot.pr_exec then f lor Page_table.f_nx else f in
  if cow then f lor Page_table.f_cow else f

let find_vma_page t page =
  match IntMap.find_last_opt (fun s -> s <= page) t.vmas with
  | Some (s, v) when page < s + v.v_npages -> Some v
  | Some _ | None -> None

let find_vma t addr = find_vma_page t (Addr.page_of addr)

let note_rss t delta =
  t.rss_pages <- t.rss_pages + delta;
  if t.rss_pages > t.maxrss_pages then t.maxrss_pages <- t.rss_pages

let drop_page t page =
  match Hashtbl.find_opt t.frames page with
  | None -> ()
  | Some frame ->
      (* Kill the PTE before detaching so stale TLB entries self-invalidate
         (they observe the cleared present bit). *)
      (match Page_table.lookup t.pt (Addr.base_of_page page) with
      | Some pte -> pte.Page_table.pte_flags <- 0
      | None -> ());
      ignore (Page_table.unmap t.pt (Addr.base_of_page page));
      Hashtbl.remove t.frames page;
      if frame <> t.machine.Machine.zero_frame then
        Phys_mem.free t.machine.Machine.phys frame;
      note_rss t (-1)

let drop_chunk t head =
  match Hashtbl.find_opt t.huge_chunks head with
  | None -> ()
  | Some frame ->
      (* Same self-invalidation discipline as [drop_page]: stale TLB copies
         of the leaf observe the cleared present bit. *)
      (match Page_table.lookup t.pt (Addr.base_of_page head) with
      | Some pte -> pte.Page_table.pte_flags <- 0
      | None -> ());
      ignore (Page_table.unmap_leaf t.pt (Addr.base_of_page head));
      Hashtbl.remove t.huge_chunks head;
      Phys_mem.free t.machine.Machine.phys frame;
      note_rss t (-Addr.pages_per_2m)

(* Demote a 2M chunk to per-page residency: every covered page stays
   resident but gets its own frame and 4K PTE (with its own VMA's flags, as
   the chunk may now straddle a prot split).  This is the THP-style split a
   partial munmap/mprotect forces. *)
let split_chunk t head =
  match Hashtbl.find_opt t.huge_chunks head with
  | None -> ()
  | Some chunk_frame ->
      Hashtbl.remove t.huge_chunks head;
      ignore (Page_table.unmap_leaf t.pt (Addr.base_of_page head));
      for page = head to head + Addr.pages_per_2m - 1 do
        match find_vma_page t page with
        | None -> note_rss t (-1) (* page lost its VMA; drop residency *)
        | Some v ->
            let frame = Machine.alloc_frame t.machine Phys_mem.Ros_region in
            Page_table.map t.pt (Addr.base_of_page page) ~frame
              ~flags:(pte_flags_of_prot v.v_prot ~cow:false);
            Hashtbl.replace t.frames page frame
      done;
      Phys_mem.free t.machine.Machine.phys chunk_frame;
      t.n_huge_splits <- t.n_huge_splits + 1;
      Machine.charge t.machine t.machine.Machine.costs.Costs.huge_split

(* Chunks whose coverage intersects [p0, p1) but is not contained in it
   must be demoted before a range operation edits individual pages. *)
let presplit_straddling_chunks t ~p0 ~p1 =
  if huge_enabled t then begin
    let straddling =
      Hashtbl.fold
        (fun head _ acc ->
          let tail = head + Addr.pages_per_2m in
          if head < p1 && tail > p0 && not (head >= p0 && tail <= p1) then head :: acc
          else acc)
        t.huge_chunks []
    in
    List.iter (split_chunk t) straddling
  end

(* One range-batched shootdown per munmap/mprotect call: a single IPI per
   core whose CR3 points at this table, invalidating the whole range,
   instead of one INVLPG IPI per page.  The paging-structure cache is not
   coherent, so it is dropped wholesale. *)
let shootdown_range t ~p0 ~p1 =
  if huge_enabled t && p1 > p0 then begin
    Mv_obs.Tracer.with_span t.machine.Machine.obs ~name:"tlb-shootdown" ~cat:"mm"
    @@ fun () ->
    let costs = t.machine.Machine.costs in
    let pt_id = Page_table.id t.pt in
    Array.iter
      (fun cpu ->
        if cpu.Cpu.cr3 = pt_id || List.mem cpu.Cpu.cr3 t.shadow_roots then begin
          Tlb.invalidate_range cpu.Cpu.tlb ~page:p0 ~npages:(p1 - p0);
          Walk_cache.flush cpu.Cpu.pwc;
          Machine.charge t.machine costs.Costs.tlb_shootdown_range;
          t.n_shootdowns <- t.n_shootdowns + 1;
          t.shootdown_cycles <- t.shootdown_cycles + costs.Costs.tlb_shootdown_range
        end)
      t.machine.Machine.cpus
  end

(* Split every VMA overlapping [p0, p1) so that the range is covered by
   whole VMAs, then hand each covered VMA to [action]. *)
let over_range t ~p0 ~p1 action =
  let overlapping =
    IntMap.to_seq t.vmas
    |> Seq.filter (fun (s, v) -> s < p1 && s + v.v_npages > p0)
    |> List.of_seq
  in
  List.iter
    (fun (s, v) ->
      t.vmas <- IntMap.remove s t.vmas;
      let e = s + v.v_npages in
      let lo = max s p0 and hi = min e p1 in
      if s < lo then
        t.vmas <- IntMap.add s { v with v_npages = lo - s } t.vmas;
      if hi < e then
        t.vmas <- IntMap.add hi { v with v_start = hi; v_npages = e - hi } t.vmas;
      action { v with v_start = lo; v_npages = hi - lo })
    overlapping

let pages_of_len len = (len + Addr.page_size - 1) / Addr.page_size

let mmap t ~len ~prot ~kind =
  if len <= 0 then invalid_arg "Mm.mmap: len <= 0";
  let npages = pages_of_len len in
  (* Huge-eligible regions get 2M-aligned placement so their chunks can
     promote (the SenoraGC heap mmaps are the intended beneficiary). *)
  if huge_enabled t && npages >= Addr.pages_per_2m then
    t.mmap_next <- (t.mmap_next - npages) land lnot (Addr.pages_per_2m - 1)
  else t.mmap_next <- t.mmap_next - npages;
  let start = t.mmap_next in
  t.vmas <- IntMap.add start { v_start = start; v_npages = npages; v_prot = prot; v_kind = kind } t.vmas;
  Addr.base_of_page start

let munmap t addr ~len =
  let p0 = Addr.page_of addr in
  let p1 = p0 + pages_of_len len in
  presplit_straddling_chunks t ~p0 ~p1;
  let freed = ref 0 in
  over_range t ~p0 ~p1 (fun v ->
      for page = v.v_start to v.v_start + v.v_npages - 1 do
        if Hashtbl.mem t.huge_chunks page then begin
          (* Whole chunk goes in one PTE edit; count it as one teardown. *)
          drop_chunk t page;
          incr freed
        end
        else if Hashtbl.mem t.huge_chunks (chunk_head page) then
          () (* interior of a live chunk; its head handles it *)
        else begin
          if Hashtbl.mem t.frames page then incr freed;
          drop_page t page
        end
      done);
  shootdown_range t ~p0 ~p1;
  !freed

let mprotect t addr ~len prot =
  let p0 = Addr.page_of addr in
  let p1 = p0 + pages_of_len len in
  presplit_straddling_chunks t ~p0 ~p1;
  let touched = ref 0 in
  over_range t ~p0 ~p1 (fun v ->
      t.vmas <- IntMap.add v.v_start { v with v_prot = prot } t.vmas;
      for page = v.v_start to v.v_start + v.v_npages - 1 do
        if Hashtbl.mem t.huge_chunks page then begin
          (* One leaf edit retags the whole chunk. *)
          ignore
            (Page_table.protect_leaf t.pt (Addr.base_of_page page)
               ~flags:(pte_flags_of_prot prot ~cow:false));
          incr touched
        end
        else if Hashtbl.mem t.huge_chunks (chunk_head page) then ()
        else
          match Page_table.lookup t.pt (Addr.base_of_page page) with
          | Some pte ->
              let cow = Page_table.has pte.Page_table.pte_flags Page_table.f_cow in
              pte.Page_table.pte_flags <- pte_flags_of_prot prot ~cow;
              incr touched
          | None -> ()
      done);
  shootdown_range t ~p0 ~p1;
  !touched

let add_fixed t ~addr ~len ~prot ~kind =
  let p0 = Addr.page_of addr in
  let npages = pages_of_len len in
  let overlap =
    IntMap.exists (fun s v -> s < p0 + npages && s + v.v_npages > p0) t.vmas
  in
  if overlap then invalid_arg "Mm.add_fixed: overlaps existing VMA";
  t.vmas <- IntMap.add p0 { v_start = p0; v_npages = npages; v_prot = prot; v_kind = kind } t.vmas

let brk t request =
  match request with
  | None -> t.brk_end
  | Some want ->
      let cur_pages = pages_of_len (t.brk_end - brk_base_addr) in
      let want = max want brk_base_addr in
      let want_pages = pages_of_len (want - brk_base_addr) in
      if want_pages > cur_pages then begin
        let start = t.brk_base + cur_pages in
        t.vmas <-
          IntMap.add start
            { v_start = start; v_npages = want_pages - cur_pages; v_prot = prot_rw; v_kind = "heap" }
            t.vmas
      end
      else if want_pages < cur_pages then
        ignore
          (munmap t
             (Addr.base_of_page (t.brk_base + want_pages))
             ~len:((cur_pages - want_pages) * Addr.page_size));
      t.brk_end <- want;
      t.brk_end

let segv addr ~write = Segv { Signal.si_signo = Signal.Sigsegv; si_addr = addr; si_write = write }

(* A chunk promotes only if its VMA is huge-sized, covers it entirely, and
   no page inside already went resident the 4K way (mixed residency would
   double-account frames). *)
let chunk_eligible t v head =
  v.v_npages >= Addr.pages_per_2m
  && head >= v.v_start
  && head + Addr.pages_per_2m <= v.v_start + v.v_npages
  && (not (Hashtbl.mem t.huge_chunks head))
  &&
  let clean = ref true in
  for p = head to head + Addr.pages_per_2m - 1 do
    if Hashtbl.mem t.frames p then clean := false
  done;
  !clean

let handle_fault t addr ~write =
  let machine = t.machine in
  let costs = machine.Machine.costs in
  let page = Addr.page_of addr in
  match find_vma_page t page with
  | None -> segv addr ~write
  | Some v -> (
      let allowed = if write then v.v_prot.pr_write else v.v_prot.pr_read in
      if not allowed then segv addr ~write
      else if Hashtbl.mem t.huge_chunks (chunk_head page) then begin
        (* Resident via a huge leaf yet faulted: the leaf's flags disagree
           with the VMA (racing protect); refresh the whole leaf. *)
        ignore
          (Page_table.protect_leaf t.pt
             (Addr.base_of_page (chunk_head page))
             ~flags:(pte_flags_of_prot v.v_prot ~cow:false));
        Fixed_minor
      end
      else if
        huge_enabled t
        && (not (Hashtbl.mem t.frames page))
        && chunk_eligible t v (chunk_head page)
      then begin
        (* Transparent promotion: first touch of a clean, fully-covered
           2M-aligned chunk of a big anonymous VMA maps one 2M leaf — one
           trap and one fill where the 4K path would take 512 of each. *)
        let head = chunk_head page in
        let frame = Machine.alloc_frame machine Phys_mem.Ros_region in
        Machine.charge machine costs.Costs.demand_huge_page;
        Page_table.map_size t.pt (Addr.base_of_page head) ~size:Page_table.S2m ~frame
          ~flags:(pte_flags_of_prot v.v_prot ~cow:false);
        Hashtbl.replace t.huge_chunks head frame;
        t.n_huge_promotions <- t.n_huge_promotions + 1;
        note_rss t Addr.pages_per_2m;
        Fixed_minor
      end
      else
        match Hashtbl.find_opt t.frames page with
        | None ->
            if write then begin
              (* First write: allocate a private zeroed frame. *)
              let frame = Machine.alloc_frame machine Phys_mem.Ros_region in
              Machine.charge machine costs.Costs.demand_page;
              Page_table.map t.pt (Addr.base_of_page page) ~frame
                ~flags:(pte_flags_of_prot v.v_prot ~cow:false);
              Hashtbl.replace t.frames page frame;
              note_rss t 1;
              Fixed_minor
            end
            else begin
              (* First read: share the zero page copy-on-write. *)
              Machine.charge machine (costs.Costs.demand_page / 2);
              Page_table.map t.pt (Addr.base_of_page page)
                ~frame:machine.Machine.zero_frame
                ~flags:(pte_flags_of_prot v.v_prot ~cow:true);
              Hashtbl.replace t.frames page machine.Machine.zero_frame;
              note_rss t 1;
              Fixed_minor
            end
        | Some frame when write && frame = machine.Machine.zero_frame ->
            (* COW break away from the shared zero page. *)
            let nframe = Machine.alloc_frame machine Phys_mem.Ros_region in
            Machine.charge machine costs.Costs.cow_copy;
            Page_table.map t.pt (Addr.base_of_page page) ~frame:nframe
              ~flags:(pte_flags_of_prot v.v_prot ~cow:false);
            Hashtbl.replace t.frames page nframe;
            Fixed_minor
        | Some _ ->
            (* Resident and permitted by the VMA, yet it faulted: the PTE
               disagrees (e.g. a racing protect); refresh it. *)
            (match Page_table.lookup t.pt (Addr.base_of_page page) with
            | Some pte -> pte.Page_table.pte_flags <- pte_flags_of_prot v.v_prot ~cow:false
            | None -> ());
            Fixed_minor)

let is_resident t addr =
  let page = Addr.page_of addr in
  Hashtbl.mem t.frames page || Hashtbl.mem t.huge_chunks (chunk_head page)

let rss_kb t = t.rss_pages * Addr.page_size / 1024
let maxrss_kb t = t.maxrss_pages * Addr.page_size / 1024
let vma_count t = IntMap.cardinal t.vmas

let mapped_bytes t =
  IntMap.fold (fun _ v acc -> acc + (v.v_npages * Addr.page_size)) t.vmas 0

let stats_huge_promotions t = t.n_huge_promotions
let stats_huge_splits t = t.n_huge_splits
let stats_shootdowns t = t.n_shootdowns
let stats_shootdown_cycles t = t.shootdown_cycles

let release t =
  let heads = Hashtbl.fold (fun head _ acc -> head :: acc) t.huge_chunks [] in
  List.iter (fun head -> drop_chunk t head) heads;
  let pages = Hashtbl.fold (fun page _ acc -> page :: acc) t.frames [] in
  List.iter (fun page -> drop_page t page) pages;
  t.vmas <- IntMap.empty
