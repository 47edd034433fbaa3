(* Paging-structure caches (Intel SDM 4.10.3): small per-core caches of
   PDPTE and PDE entries, tagged by the address bits above the level they
   short-circuit.  A PDE-cache hit lets a 4 KiB miss start its walk at the
   PT (1 memory access); a PDPTE hit starts at the PD (2 accesses).  We
   cache presence only — the simulated walk still reads the live tree, the
   cache just discounts the levels a real walker would skip. *)

type klass = {
  k_capacity : int;
  k_keys : (int, unit) Hashtbl.t;
  k_order : int Queue.t;
}

let make_klass capacity =
  { k_capacity = capacity; k_keys = Hashtbl.create 16; k_order = Queue.create () }

type t = {
  pdpte : klass;  (* key: addr lsr 30 — one entry per mapped 1G region *)
  pde : klass;  (* key: addr lsr 21 — one entry per mapped 2M region *)
  mutable hits : int;
  mutable misses : int;
}

let create () = { pdpte = make_klass 16; pde = make_klass 32; hits = 0; misses = 0 }

let skip t addr =
  (* Levels of the walk a hit lets us skip: 3 with a cached PDE
     (PML4E+PDPTE+PDE known), 2 with a cached PDPTE, else 0. *)
  if Hashtbl.mem t.pde.k_keys (addr lsr 21) then begin
    t.hits <- t.hits + 1;
    3
  end
  else if Hashtbl.mem t.pdpte.k_keys (addr lsr 30) then begin
    t.hits <- t.hits + 1;
    2
  end
  else begin
    t.misses <- t.misses + 1;
    0
  end

let rec evict_one k =
  match Queue.take_opt k.k_order with
  | None -> ()
  | Some key -> if Hashtbl.mem k.k_keys key then Hashtbl.remove k.k_keys key else evict_one k

let insert k key =
  if not (Hashtbl.mem k.k_keys key) then begin
    if Hashtbl.length k.k_keys >= k.k_capacity then evict_one k;
    Hashtbl.replace k.k_keys key ();
    Queue.add key k.k_order
  end

let note t addr ~levels =
  (* A walk that traversed the PDPT into a PD proves a PDPTE exists; one
     that traversed the PD into a PT proves a PDE exists.  Huge leaves stop
     the walk before the structure below them, so they cache nothing — their
     translations live in the TLB's large-page classes instead. *)
  if levels >= 3 then insert t.pdpte (addr lsr 30);
  if levels >= 4 then insert t.pde (addr lsr 21)

let flush t =
  let clear k =
    Hashtbl.reset k.k_keys;
    Queue.clear k.k_order
  in
  clear t.pdpte;
  clear t.pde

let hits t = t.hits
let misses t = t.misses

let reset_stats t =
  t.hits <- 0;
  t.misses <- 0
