type flags = int

let f_present = 1
let f_writable = 2
let f_user = 4
let f_nx = 8
let f_cow = 16
let has flags bit = flags land bit <> 0

type pte = { mutable frame : int; mutable pte_flags : flags }

type size = S4k | S2m | S1g

let pages_of_size = function
  | S4k -> 1
  | S2m -> Addr.pages_per_2m
  | S1g -> Addr.pages_per_1g

let pp_size ppf s =
  Format.pp_print_string ppf (match s with S4k -> "4K" | S2m -> "2M" | S1g -> "1G")

(* Interior nodes hold either further tables or leaf entries, depending on
   the level.  Level numbering: 4 = PML4 ... 1 = PT.  A [Page] in a PT slot
   is a 4 KiB leaf; a [Page] in a PD slot is a 2 MiB large page; a [Page] in
   a PDPT slot is a 1 GiB large page (PS bit set, in real hardware). *)
type node = { slots : slot array }
and slot = Empty | Table of node | Page of pte

type t = { id : int; pml4 : node; mutable lower_gen : int }

(* Process-wide allocator so concurrent machines on different domains
   never mint the same id.  Ids are compared only for equality (cr3 tags,
   shadow-root membership) and never rendered into traces or metrics, so
   the values themselves carry no determinism obligation. *)
let next_id = Atomic.make 0

let fresh_node () = { slots = Array.make 512 Empty }

let create () =
  { id = 1 + Atomic.fetch_and_add next_id 1; pml4 = fresh_node (); lower_gen = 0 }

let id t = t.id

let indices addr =
  (Addr.pml4_index addr, Addr.pdpt_index addr, Addr.pd_index addr, Addr.pt_index addr)

let get_table node i =
  match node.slots.(i) with
  | Table n -> Some n
  | Empty -> None
  | Page _ -> invalid_arg "Page_table: leaf at interior level"

let get_or_make_table node i =
  match node.slots.(i) with
  | Table n -> (n, false)
  | Empty ->
      let n = fresh_node () in
      node.slots.(i) <- Table n;
      (n, true)
  | Page _ -> invalid_arg "Page_table: leaf at interior level"

(* Splitting a huge leaf replaces it by a full table of next-size-down
   children covering the same range: child [i] inherits the parent's flags
   and a frame offset matching its position (as hardware sees a contiguous
   physical large page). *)
let split_1g_slot pdpt i3 pte =
  let pd = fresh_node () in
  for i = 0 to 511 do
    pd.slots.(i) <- Page { frame = pte.frame + (i * Addr.pages_per_2m); pte_flags = pte.pte_flags }
  done;
  pdpt.slots.(i3) <- Table pd;
  pd

let split_2m_slot pd i2 pte =
  let pt = fresh_node () in
  for i = 0 to 511 do
    pt.slots.(i) <- Page { frame = pte.frame + i; pte_flags = pte.pte_flags }
  done;
  pd.slots.(i2) <- Table pt;
  pt

(* Descend to the PD for [addr], splitting a covering 1G leaf on the way.
   Returns [None] if the PDPT slot is empty. *)
let pd_of_split pdpt i3 =
  match pdpt.slots.(i3) with
  | Table n -> Some n
  | Page pte -> Some (split_1g_slot pdpt i3 pte)
  | Empty -> None

let pt_of_split pd i2 =
  match pd.slots.(i2) with
  | Table n -> Some n
  | Page pte -> Some (split_2m_slot pd i2 pte)
  | Empty -> None

let map t addr ~frame ~flags =
  if not (Addr.is_page_aligned addr) then invalid_arg "Page_table.map: unaligned";
  let i4, i3, i2, i1 = indices addr in
  let pdpt, created4 = get_or_make_table t.pml4 i4 in
  if created4 && i4 < 256 then t.lower_gen <- t.lower_gen + 1;
  let pd =
    match pd_of_split pdpt i3 with
    | Some n -> n
    | None ->
        let n = fresh_node () in
        pdpt.slots.(i3) <- Table n;
        n
  in
  let pt =
    match pt_of_split pd i2 with
    | Some n -> n
    | None ->
        let n = fresh_node () in
        pd.slots.(i2) <- Table n;
        n
  in
  match pt.slots.(i1) with
  | Page pte ->
      pte.frame <- frame;
      pte.pte_flags <- flags
  | Empty | Table _ -> pt.slots.(i1) <- Page { frame; pte_flags = flags }

let map_size t addr ~size ~frame ~flags =
  match size with
  | S4k -> map t addr ~frame ~flags
  | S2m ->
      if not (Addr.is_2m_aligned addr) then invalid_arg "Page_table.map_size: 2M-unaligned";
      let i4, i3, i2, _ = indices addr in
      let pdpt, created4 = get_or_make_table t.pml4 i4 in
      if created4 && i4 < 256 then t.lower_gen <- t.lower_gen + 1;
      let pd =
        match pd_of_split pdpt i3 with
        | Some n -> n
        | None ->
            let n = fresh_node () in
            pdpt.slots.(i3) <- Table n;
            n
      in
      (* Replaces any existing 4K sub-tree under this PD slot. *)
      pd.slots.(i2) <- Page { frame; pte_flags = flags }
  | S1g ->
      if not (Addr.is_1g_aligned addr) then invalid_arg "Page_table.map_size: 1G-unaligned";
      let i4, i3, _, _ = indices addr in
      let pdpt, created4 = get_or_make_table t.pml4 i4 in
      if created4 && i4 < 256 then t.lower_gen <- t.lower_gen + 1;
      pdpt.slots.(i3) <- Page { frame; pte_flags = flags }

let walk_sized t addr =
  let i4, i3, i2, i1 = indices addr in
  match get_table t.pml4 i4 with
  | None -> (None, 1)
  | Some pdpt -> (
      match pdpt.slots.(i3) with
      | Empty -> (None, 2)
      | Page pte -> (Some (pte, S1g), 2)
      | Table pd -> (
          match pd.slots.(i2) with
          | Empty -> (None, 3)
          | Page pte -> (Some (pte, S2m), 3)
          | Table pt -> (
              match pt.slots.(i1) with
              | Page pte -> (Some (pte, S4k), 4)
              | Empty | Table _ -> (None, 4))))

let walk t addr =
  match walk_sized t addr with
  | Some (pte, _), levels -> (Some pte, levels)
  | None, levels -> (None, levels)

let lookup t addr = fst (walk t addr)

let unmap t addr =
  let i4, i3, i2, i1 = indices addr in
  match get_table t.pml4 i4 with
  | None -> false
  | Some pdpt -> (
      match pd_of_split pdpt i3 with
      | None -> false
      | Some pd -> (
          match pt_of_split pd i2 with
          | None -> false
          | Some pt -> (
              match pt.slots.(i1) with
              | Page _ ->
                  pt.slots.(i1) <- Empty;
                  true
              | Empty | Table _ -> false)))

let unmap_leaf t addr =
  let i4, i3, i2, i1 = indices addr in
  match get_table t.pml4 i4 with
  | None -> None
  | Some pdpt -> (
      match pdpt.slots.(i3) with
      | Empty -> None
      | Page _ ->
          pdpt.slots.(i3) <- Empty;
          Some S1g
      | Table pd -> (
          match pd.slots.(i2) with
          | Empty -> None
          | Page _ ->
              pd.slots.(i2) <- Empty;
              Some S2m
          | Table pt -> (
              match pt.slots.(i1) with
              | Page _ ->
                  pt.slots.(i1) <- Empty;
                  Some S4k
              | Empty | Table _ -> None)))

let protect t addr ~flags =
  let i4, i3, i2, i1 = indices addr in
  match get_table t.pml4 i4 with
  | None -> false
  | Some pdpt -> (
      match pd_of_split pdpt i3 with
      | None -> false
      | Some pd -> (
          match pt_of_split pd i2 with
          | None -> false
          | Some pt -> (
              match pt.slots.(i1) with
              | Page pte ->
                  pte.pte_flags <- flags;
                  true
              | Empty | Table _ -> false)))

let protect_leaf t addr ~flags =
  match walk_sized t addr with
  | Some (pte, s), _ ->
      pte.pte_flags <- flags;
      Some s
  | None, _ -> None

let copy_lower_half ~src ~dst =
  let copied = ref 0 in
  for i = 0 to 255 do
    (match (src.pml4.slots.(i), dst.pml4.slots.(i)) with
    | Empty, Empty -> ()
    | s, _ ->
        if s <> Empty then incr copied;
        dst.pml4.slots.(i) <- s);
    ()
  done;
  dst.lower_gen <- src.lower_gen;
  !copied

let clear_lower_half t =
  for i = 0 to 255 do
    if t.pml4.slots.(i) <> Empty then begin
      t.pml4.slots.(i) <- Empty;
      t.lower_gen <- t.lower_gen + 1
    end
  done

let lower_half_generation t = t.lower_gen

let iter_leaves t f =
  let visit_pt base_pt pt =
    Array.iteri
      (fun i1 slot ->
        match slot with
        | Page pte -> f (base_pt lor (i1 lsl 12)) S4k pte
        | Empty | Table _ -> ())
      pt.slots
  in
  let visit_pd base_pd pd =
    Array.iteri
      (fun i2 slot ->
        match slot with
        | Table pt -> visit_pt (base_pd lor (i2 lsl 21)) pt
        | Page pte -> f (base_pd lor (i2 lsl 21)) S2m pte
        | Empty -> ())
      pd.slots
  in
  let visit_pdpt base_pdpt pdpt =
    Array.iteri
      (fun i3 slot ->
        match slot with
        | Table pd -> visit_pd (base_pdpt lor (i3 lsl 30)) pd
        | Page pte -> f (base_pdpt lor (i3 lsl 30)) S1g pte
        | Empty -> ())
      pdpt.slots
  in
  Array.iteri
    (fun i4 slot ->
      match slot with
      | Table pdpt -> visit_pdpt (i4 lsl 39) pdpt
      | Empty | Page _ -> ())
    t.pml4.slots

let iter_mappings t f = iter_leaves t (fun addr _size pte -> f addr pte)

let count_mapped t =
  let n = ref 0 in
  iter_mappings t (fun _ _ -> incr n);
  !n
