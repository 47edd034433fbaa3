(* Property tests (qcheck) for the protocol-critical invariants the
   mvcheck model checker leans on:

   - Fault_plan: exact (seed, rate, sites) determinism, and per-site
     stream independence (masking other sites never shifts a site's
     randomness — the property that makes fault counterexamples stable
     under site filtering).
   - Addr / Page_table: address decomposition round-trips and
     map/walk/unmap coherence for arbitrary page sets.
   - Event_channel: server-side dedup keeps payload execution at-most-once
     under arbitrary duplicate/drop/delay fault seeds and schedules. *)

module Addr = Mv_hw.Addr
module Page_table = Mv_hw.Page_table
module Fault_plan = Mv_faults.Fault_plan
module Explore = Mv_check.Explore
module Scenario = Mv_check.Scenario
module Strategy = Mv_check.Strategy

(* QCheck_alcotest marks property tests `Slow by default, which the -q
   quick tier would skip; these properties are cheap, so force `Quick. *)
let to_alcotest t =
  let name, _, fn = QCheck_alcotest.to_alcotest t in
  (name, `Quick, fn)

(* --- Fault_plan --- *)

let arb_rate = QCheck.float_range 0.0 1.0
let arb_seed = QCheck.int_bound 1_000_000

let arb_sites =
  (* A non-empty sublist of all_sites, chosen by bitmask. *)
  let n = List.length Fault_plan.all_sites in
  QCheck.map
    (fun mask ->
      let mask = 1 + (mask land ((1 lsl n) - 2)) in
      List.filteri (fun i _ -> mask land (1 lsl i) <> 0) Fault_plan.all_sites)
    QCheck.(int_bound ((1 lsl n) - 1))

let fire_seq plan site k =
  List.init k (fun i -> Fault_plan.fire plan site (string_of_int i))

let qcheck_plan_deterministic =
  QCheck.Test.make ~name:"fault plan: (seed,rate,sites) fully determines decisions"
    ~count:100
    QCheck.(triple arb_seed arb_rate arb_sites)
    (fun (seed, rate, sites) ->
      let mk () = Fault_plan.create ~seed ~rate ~sites () in
      let seq plan =
        List.concat_map (fun site -> fire_seq plan site 50) sites
      in
      seq (mk ()) = seq (mk ()))

let qcheck_plan_site_independence =
  QCheck.Test.make
    ~name:"fault plan: masking other sites never shifts a site's stream"
    ~count:100
    QCheck.(triple arb_seed arb_rate arb_sites)
    (fun (seed, rate, sites) ->
      let site = List.hd sites in
      let full = Fault_plan.create ~seed ~rate () in
      let masked = Fault_plan.create ~seed ~rate ~sites:[ site ] () in
      (* Drain unrelated streams on the full plan first: independence means
         this cannot perturb [site]'s stream. *)
      List.iter
        (fun s -> if s <> site then ignore (fire_seq full s 25))
        Fault_plan.all_sites;
      fire_seq full site 50 = fire_seq masked site 50)

let qcheck_plan_rate_extremes =
  QCheck.Test.make ~name:"fault plan: rate 0 never fires, rate 1 always fires"
    ~count:50
    QCheck.(pair arb_seed arb_sites)
    (fun (seed, sites) ->
      let never = Fault_plan.create ~seed ~rate:0.0 ~sites () in
      let always = Fault_plan.create ~seed ~rate:1.0 ~sites () in
      List.for_all
        (fun site ->
          (not (List.exists (fun x -> x) (fire_seq never site 20)))
          && List.for_all (fun x -> x) (fire_seq always site 20))
        sites)

let qcheck_sites_string_roundtrip =
  QCheck.Test.make ~name:"fault sites: to_string/of_string round-trip" ~count:200
    arb_sites
    (fun sites ->
      match Fault_plan.sites_of_string (Fault_plan.sites_to_string sites) with
      | Ok sites' -> sites' = sites
      | Error _ -> false)

(* --- Addr / Page_table --- *)

let qcheck_addr_indices_roundtrip =
  QCheck.Test.make ~name:"addr: of_indices/indices round-trip" ~count:200
    QCheck.(quad (int_bound 511) (int_bound 511) (int_bound 511) (int_bound 511))
    (fun (pml4, pdpt, pd, pt) ->
      let a = Addr.of_indices ~pml4 ~pdpt ~pd ~pt ~offset:0 in
      Addr.pml4_index a = pml4
      && Addr.pdpt_index a = pdpt
      && Addr.pd_index a = pd
      && Addr.pt_index a = pt
      && Addr.is_page_aligned a)

let qcheck_addr_page_roundtrip =
  QCheck.Test.make ~name:"addr: page_of/base_of_page round-trip" ~count:200
    QCheck.(int_bound (Addr.lower_half_limit - 1))
    (fun a ->
      let page = Addr.page_of a in
      Addr.base_of_page page = Addr.align_down a
      && Addr.page_offset a = a - Addr.align_down a)

(* Distinct page-aligned lower-half addresses from an arbitrary page set. *)
let pages_of_ints ints =
  List.sort_uniq compare (List.map (fun i -> abs i mod 100_000) ints)
  |> List.map Addr.base_of_page

let qcheck_page_table_map_walk_unmap =
  QCheck.Test.make ~name:"page table: map/walk/unmap coherence" ~count:100
    QCheck.(list_of_size Gen.(1 -- 40) int)
    (fun ints ->
      let addrs = pages_of_ints ints in
      let pt = Page_table.create () in
      List.iteri
        (fun i a ->
          Page_table.map pt a ~frame:(1000 + i)
            ~flags:Page_table.(f_present lor f_writable))
        addrs;
      let mapped_ok =
        List.for_all2
          (fun i a ->
            match Page_table.walk pt a with
            | Some pte, _levels -> pte.Page_table.frame = 1000 + i
            | None, _ -> false)
          (List.init (List.length addrs) Fun.id)
          addrs
      in
      let count_ok = Page_table.count_mapped pt = List.length addrs in
      let unmapped_ok =
        List.for_all (fun a -> Page_table.unmap pt a) addrs
        && Page_table.count_mapped pt = 0
        && List.for_all
             (fun a -> match Page_table.lookup pt a with None -> true | Some _ -> false)
             addrs
        && not (Page_table.unmap pt (List.hd addrs))
      in
      mapped_ok && count_ok && unmapped_ok)

(* --- Mixed-size page tables vs a flat reference model --- *)

(* Random map/unmap/protect traffic at all three page sizes, confined to
   the first two 1 GiB regions of the lower half, checked against a flat
   per-page model evaluated by backward scan: the latest Map (or Unmap)
   covering a page governs it, and Protects on that page after the
   governing Map override its flags.  This exercises huge-leaf
   installation, auto-split on 4K traffic under a huge leaf, and the
   frame arithmetic the splits must preserve. *)

type mixed_op =
  | MMap of Page_table.size * int * int  (* aligned base page, flag selector *)
  | MUnmap of int  (* page *)
  | MProtect of int * int  (* page, flag selector *)

let mixed_region_pages = 2 * Addr.pages_per_1g

let mixed_flag_sets =
  Page_table.
    [|
      f_present lor f_writable;
      f_present;
      f_present lor f_user;
      f_present lor f_writable lor f_user;
    |]

(* Each op gets a distinct base frame so the model can spot a wrong
   governing mapping, not just a wrong offset. *)
let mixed_frame i = 10_000 * (i + 1)

let pp_mixed_op = function
  | MMap (s, b, fl) ->
      Printf.sprintf "map[%s] @%d fl%d" (Format.asprintf "%a" Page_table.pp_size s) b fl
  | MUnmap p -> Printf.sprintf "unmap @%d" p
  | MProtect (p, fl) -> Printf.sprintf "protect @%d fl%d" p fl

let arb_mixed_ops =
  let open QCheck in
  let gen_op =
    Gen.(
      int_bound (mixed_region_pages - 1) >>= fun page ->
      int_bound (Array.length mixed_flag_sets - 1) >>= fun fl ->
      int_bound 9 >>= fun kind ->
      match kind with
      | 0 | 1 | 2 | 3 -> return (MMap (Page_table.S4k, page, fl))
      | 4 | 5 -> return (MMap (Page_table.S2m, page land lnot (Addr.pages_per_2m - 1), fl))
      | 6 -> return (MMap (Page_table.S1g, page land lnot (Addr.pages_per_1g - 1), fl))
      | 7 | 8 -> return (MUnmap page)
      | _ -> return (MProtect (page, fl)))
  in
  make
    ~print:(fun ops -> String.concat "; " (List.map pp_mixed_op ops))
    (Gen.list_size Gen.(1 -- 25) gen_op)

let apply_mixed pt ops =
  List.iteri
    (fun i op ->
      match op with
      | MMap (size, base, fl) ->
          Page_table.map_size pt (Addr.base_of_page base) ~size ~frame:(mixed_frame i)
            ~flags:mixed_flag_sets.(fl)
      | MUnmap page -> ignore (Page_table.unmap pt (Addr.base_of_page page))
      | MProtect (page, fl) ->
          ignore (Page_table.protect pt (Addr.base_of_page page) ~flags:mixed_flag_sets.(fl)))
    ops

let model_lookup ops page =
  let rec scan rev_ops pending =
    match rev_ops with
    | [] -> None
    | (i, op) :: rest -> (
        match op with
        | MProtect (p, fl) when p = page ->
            scan rest (match pending with None -> Some fl | s -> s)
        | MUnmap p when p = page -> None
        | MMap (size, base, fl)
          when base <= page && page < base + Page_table.pages_of_size size ->
            let flags =
              match pending with
              | Some sel -> mixed_flag_sets.(sel)
              | None -> mixed_flag_sets.(fl)
            in
            Some (mixed_frame i + (page - base), flags)
        | _ -> scan rest pending)
  in
  scan (List.rev (List.mapi (fun i op -> (i, op)) ops)) None

(* Pages worth probing: the edges of every op's footprint and their
   immediate neighbours. *)
let mixed_probes ops =
  let add acc p = if p >= 0 && p < mixed_region_pages then p :: acc else acc in
  List.fold_left
    (fun acc op ->
      match op with
      | MMap (size, base, _) ->
          let n = Page_table.pages_of_size size in
          List.fold_left add acc [ base - 1; base; base + 1; base + n - 1; base + n ]
      | MUnmap p | MProtect (p, _) -> List.fold_left add acc [ p - 1; p; p + 1 ])
    [] ops
  |> List.sort_uniq compare

let qcheck_mixed_vs_model =
  QCheck.Test.make ~name:"page table: mixed-size ops match the flat reference model"
    ~count:300 arb_mixed_ops
    (fun ops ->
      let pt = Page_table.create () in
      apply_mixed pt ops;
      List.for_all
        (fun page ->
          let addr = Addr.base_of_page page in
          match (model_lookup ops page, fst (Page_table.walk_sized pt addr)) with
          | None, None -> true
          | Some (frame, flags), Some (pte, size) ->
              (* A huge leaf's pte carries the region's base frame. *)
              let real_frame =
                match size with
                | Page_table.S4k -> pte.Page_table.frame
                | Page_table.S2m ->
                    pte.Page_table.frame + (page - (page land lnot (Addr.pages_per_2m - 1)))
                | Page_table.S1g ->
                    pte.Page_table.frame + (page - (page land lnot (Addr.pages_per_1g - 1)))
              in
              real_frame = frame && pte.Page_table.pte_flags = flags
          | _ -> false)
        (mixed_probes ops))

let qcheck_walk_levels =
  QCheck.Test.make ~name:"page table: walk level count matches the leaf size"
    ~count:100
    QCheck.(pair (int_bound (mixed_region_pages - 1)) (int_bound 2))
    (fun (page, k) ->
      let size, base =
        match k with
        | 0 -> (Page_table.S4k, page)
        | 1 -> (Page_table.S2m, page land lnot (Addr.pages_per_2m - 1))
        | _ -> (Page_table.S1g, page land lnot (Addr.pages_per_1g - 1))
      in
      let pt = Page_table.create () in
      Page_table.map_size pt (Addr.base_of_page base) ~size ~frame:42
        ~flags:Page_table.f_present;
      match Page_table.walk_sized pt (Addr.base_of_page page) with
      | Some (_, size'), levels ->
          size' = size
          && levels = (match size with Page_table.S1g -> 2 | S2m -> 3 | S4k -> 4)
      | None, _ -> false)

(* --- Size-aware TLB range invalidation --- *)

let qcheck_tlb_range_invalidate =
  QCheck.Test.make
    ~name:"tlb: invalidate_range drops exactly the intersecting entries"
    ~count:300
    QCheck.(
      pair
        (list_of_size Gen.(1 -- 40)
           (pair (int_bound (mixed_region_pages - 1)) (int_bound 9)))
        (pair (int_bound (mixed_region_pages - 1)) (int_bound 100_000)))
    (fun (entries, (r0, rlen)) ->
      let rlen = 1 + rlen in
      (* Capacities large enough that nothing is evicted during fill. *)
      let tlb = Mv_hw.Tlb.create ~capacity:4096 ~capacity_2m:256 ~capacity_1g:64 () in
      let pte = Page_table.{ frame = 7; pte_flags = f_present } in
      (* Keep only entries with pairwise-disjoint coverage, so a dropped
         entry cannot be shadowed by a coarser one covering the same page. *)
      let keyed =
        List.fold_left
          (fun acc (page, k) ->
            let size =
              if k < 7 then Page_table.S4k else if k < 9 then Page_table.S2m else Page_table.S1g
            in
            let shift =
              match size with Page_table.S4k -> 0 | S2m -> 9 | S1g -> 18
            in
            let lo = (page lsr shift) lsl shift and hi = ((page lsr shift) + 1) lsl shift in
            if List.exists (fun (_, _, lo', hi') -> lo < hi' && hi > lo') acc then acc
            else (page, size, lo, hi) :: acc)
          [] entries
      in
      List.iter (fun (page, size, _, _) -> Mv_hw.Tlb.fill ~size tlb ~page pte) keyed;
      Mv_hw.Tlb.invalidate_range tlb ~page:r0 ~npages:rlen;
      List.for_all
        (fun (page, _, lo, hi) ->
          let intersects = lo < r0 + rlen && hi > r0 in
          let found = Mv_hw.Tlb.lookup tlb ~page <> None in
          found = not intersects)
        keyed)

(* --- Event_channel dedup idempotence --- *)

let dup_heavy seed =
  {
    Explore.fc_seed = seed;
    fc_rate = 0.8;
    fc_sites = Fault_plan.[ Chan_duplicate; Chan_drop; Chan_delay ];
  }

let qcheck_dedup_at_most_once =
  QCheck.Test.make
    ~name:"event channel: dedup keeps payloads at-most-once under duplication"
    ~count:12
    QCheck.(pair (int_bound 10_000) bool)
    (fun (seed, sync) ->
      let name = if sync then "ping-pong-sync" else "ping-pong-async" in
      let sc = Option.get (Mv_check.Scenarios.find name) in
      match
        Explore.run_once sc ~spec:(Strategy.Random seed) ~fc:(dup_heavy seed)
      with
      | Scenario.Pass, _ -> true
      | Scenario.Fail msg, _ -> QCheck.Test.fail_reportf "%s: %s" name msg)

(* --- overload model: token bucket, bounded rings, per-group FIFO --- *)

(* The admission-control regulator's defining bound, straight off the
   bucket's pure state: over any window of [w] cycles starting from a
   full bucket, admissions never exceed [burst + rate * w]. *)
let qcheck_token_bucket_window_bound =
  QCheck.Test.make
    ~name:"token bucket: admissions over any window <= burst + rate * window"
    ~count:200
    QCheck.(
      triple
        (pair (int_range 1 1000) (int_range 1 8))
        (list_of_size Gen.(1 -- 80) (int_bound 5_000))
        (int_bound 1_000))
    (fun ((rate_millis, burst), gaps, t0) ->
      let rate = float_of_int rate_millis /. 1_000_000.0 in
      let bucket = Mv_util.Token_bucket.create ~rate ~burst ~now:t0 in
      let now = ref t0 and admitted = ref 0 and last = ref t0 in
      List.iter
        (fun gap ->
          now := !now + gap;
          if Mv_util.Token_bucket.take bucket ~now:!now then begin
            incr admitted;
            last := !now
          end)
        gaps;
      let window = float_of_int (!last - t0) in
      float_of_int !admitted <= float_of_int burst +. (rate *. window) +. 1e-9)

(* End-to-end through the load generator: whatever the offered load and
   arrival process, an endpoint's slot ring never grows past the
   configured capacity — overload shows up as sheds/queueing, never as an
   unbounded ring. *)
let qcheck_ring_occupancy_bounded =
  QCheck.Test.make
    ~name:"fabric: ring occupancy high-water <= configured ring capacity"
    ~count:8
    QCheck.(triple (int_range 1 8) (int_bound 1_000) bool)
    (fun (ring_capacity, seed, bursty) ->
      let open Mv_workloads.Loadgen in
      let cfg =
        {
          default_config with
          lg_groups = 20;
          lg_calls_per_group = 8;
          lg_workers_per_group = 8;
          lg_offered_cps = 2_000_000.0;
          lg_arrival = (if bursty then Bursty else Poisson);
          lg_seed = seed;
          lg_admission =
            Some
              (Mv_hvm.Fabric.make_admission ~policy:Mv_hvm.Fabric.Shed ~ring_capacity
                 ~shed_retries:1 ());
        }
      in
      let r = run cfg in
      if r.r_ring_hw <= ring_capacity then true
      else
        QCheck.Test.fail_reportf "ring high-water %d > capacity %d" r.r_ring_hw
          ring_capacity)

(* A group that issues its requests sequentially must see them execute in
   issue order even when the admission gate sheds and the stub retries
   with backoff: a retried request may be dropped, but it can never leak
   a stale ring slot that executes out of order behind a later call. *)
let qcheck_per_group_fifo_under_shedding =
  QCheck.Test.make
    ~name:"fabric: per-group issue order survives shedding and retries"
    ~count:20
    QCheck.(pair (int_bound 10_000) (int_range 2 5))
    (fun (seed, groups) ->
      let machine = Mv_engine.Machine.create () in
      let exec = machine.Mv_engine.Machine.exec in
      let fabric = Mv_hvm.Fabric.create machine ~kind:Mv_hvm.Event_channel.Async in
      Mv_hvm.Fabric.set_admission fabric
        (Some
           (Mv_hvm.Fabric.make_admission ~policy:Mv_hvm.Fabric.Shed ~ring_capacity:2
              ~rate:2e-4 ~burst:1 ~shed_retries:2 ()));
      Mv_hvm.Fabric.start_pool fabric
        ~spawn:(fun ~name ~core body -> Mv_engine.Exec.spawn exec ~cpu:core ~name body)
        ~cores:[ 0; 1 ] ();
      let calls = 6 in
      let ran : (int * int) list ref = ref [] in
      let rng = Mv_util.Rng.create ~seed in
      let threads =
        List.init groups (fun g ->
            let ep =
              Mv_hvm.Fabric.endpoint fabric
                ~name:(Printf.sprintf "fifo-%d" g)
                ~ros_core:(g mod 2) ~hrt_core:7
            in
            let jitter =
              Array.init calls (fun _ -> 1 + int_of_float (Mv_util.Rng.float rng 3_000.0))
            in
            Mv_engine.Exec.spawn exec ~cpu:7
              ~name:(Printf.sprintf "fifo-issuer-%d" g)
              (fun () ->
                for i = 0 to calls - 1 do
                  Mv_engine.Exec.sleep exec jitter.(i);
                  ignore
                    (Mv_hvm.Fabric.offer fabric ep
                       {
                         Mv_hvm.Event_channel.req_kind = Printf.sprintf "fifo-%d-%d" g i;
                         req_run = (fun () -> ran := (g, i) :: !ran);
                       })
                done))
      in
      ignore
        (Mv_engine.Exec.spawn exec ~cpu:0 ~name:"fifo-coordinator" (fun () ->
             List.iter (fun th -> Mv_engine.Exec.join exec th) threads;
             Mv_hvm.Fabric.shutdown fabric));
      Mv_engine.Sim.run machine.Mv_engine.Machine.sim;
      let order = List.rev !ran in
      List.for_all
        (fun g ->
          let mine = List.filter_map (fun (g', i) -> if g' = g then Some i else None) order in
          let rec increasing = function
            | a :: (b :: _ as rest) -> a < b && increasing rest
            | _ -> true
          in
          if increasing mine then true
          else
            QCheck.Test.fail_reportf "group %d ran out of order: [%s]" g
              (String.concat ";" (List.map string_of_int mine)))
        (List.init groups (fun g -> g)))

(* --- Phys_mem: the NUMA-sharded frame allocator --- *)

module Phys_mem = Mv_hw.Phys_mem

(* Small zones so exhaustion (and therefore fallback) is reachable within
   a few dozen allocations. *)
let small_pm ?(cores_per_socket = 4) sockets =
  Phys_mem.create ~frames_per_zone:8 ~cores_per_socket ~sockets ~hrt_fraction:0.25 ()

let qcheck_pm_fallback_order =
  QCheck.Test.make
    ~name:"phys_mem: fallback order is distance-sorted with ties to the lowest zone"
    ~count:200
    QCheck.(pair (1 -- 8) (int_bound 7))
    (fun (sockets, z) ->
      let z = z mod sockets in
      let pm = small_pm sockets in
      let expected =
        List.sort
          (fun a b -> compare (abs (a - z), a) (abs (b - z), b))
          (List.init sockets (fun i -> i))
      in
      Phys_mem.fallback_order pm ~zone:z = expected)

let qcheck_pm_alloc_near_local =
  QCheck.Test.make
    ~name:"phys_mem: alloc_near drains the core's own zone before spilling" ~count:200
    QCheck.(triple (1 -- 5) (1 -- 8) (int_bound 63))
    (fun (sockets, cps, core) ->
      let pm = small_pm ~cores_per_socket:cps sockets in
      let core = core mod (sockets * cps) in
      let local = Phys_mem.zone_of_core pm core in
      (* Without frees, the zone sequence must be: a non-empty local
         prefix, then never local again (local-first means a non-local
         frame proves local exhaustion). *)
      let total = Phys_mem.total pm Phys_mem.Ros_region in
      let spilled = ref false in
      let ok = ref true in
      for _ = 1 to total do
        let f = Phys_mem.alloc_near pm ~core Phys_mem.Ros_region in
        let z = Phys_mem.zone_of_frame pm f in
        if z = local then (if !spilled then ok := false) else spilled := true
      done;
      !ok)

let qcheck_pm_hinted_alloc_vs_model =
  QCheck.Test.make
    ~name:"phys_mem: hinted alloc matches the distance-ordered freelist model" ~count:100
    QCheck.(pair (1 -- 5) (list_of_size Gen.(1 -- 80) (int_bound 15)))
    (fun (sockets, hints) ->
      (* Measure per-zone ROS capacity on a scratch instance, then replay
         random hints against a fresh one, predicting each allocation's
         zone with a plain free-count model over [fallback_order]. *)
      let probe = small_pm sockets in
      let cap = Array.make sockets 0 in
      let total = Phys_mem.total probe Phys_mem.Ros_region in
      for _ = 1 to total do
        let z = Phys_mem.zone_of_frame probe (Phys_mem.alloc probe Phys_mem.Ros_region) in
        cap.(z) <- cap.(z) + 1
      done;
      let pm = small_pm sockets in
      let free = Array.copy cap in
      let remaining = ref total in
      List.for_all
        (fun h ->
          !remaining = 0
          ||
          let z = h mod sockets in
          let expected =
            List.find (fun z' -> free.(z') > 0) (Phys_mem.fallback_order pm ~zone:z)
          in
          let got = Phys_mem.zone_of_frame pm (Phys_mem.alloc pm ~zone:z Phys_mem.Ros_region) in
          free.(got) <- free.(got) - 1;
          decr remaining;
          got = expected
          || QCheck.Test.fail_reportf "hint %d: allocated from zone %d, model says %d" z got
               expected)
        hints)

let qcheck_pm_conservation =
  QCheck.Test.make
    ~name:"phys_mem: frames stay distinct and conserved across alloc/free storms"
    ~count:100
    QCheck.(pair (1 -- 4) (list_of_size Gen.(1 -- 120) (pair bool (int_bound 1023))))
    (fun (sockets, ops) ->
      let pm = small_pm sockets in
      let total = Phys_mem.total pm Phys_mem.Ros_region in
      let live = ref [] in
      let ok = ref true in
      List.iter
        (fun (is_alloc, k) ->
          if !ok then begin
            (if is_alloc && List.length !live < total then begin
               let f = Phys_mem.alloc pm ~zone:(k mod sockets) Phys_mem.Ros_region in
               (* No double allocation: a frame must never be handed out
                  twice, no matter which zone's freelist served it. *)
               if List.mem f !live then ok := false else live := f :: !live
             end
             else
               match !live with
               | [] -> ()
               | l ->
                   let i = k mod List.length l in
                   Phys_mem.free pm (List.nth l i);
                   live := List.filteri (fun j _ -> j <> i) l);
            if Phys_mem.allocated pm Phys_mem.Ros_region <> List.length !live then
              ok := false
          end)
        ops;
      List.iter (fun f -> Phys_mem.free pm f) !live;
      !ok && Phys_mem.allocated pm Phys_mem.Ros_region = 0)

(* --- Event_queue ------------------------------------------------- *)

module Event_queue = Mv_engine.Event_queue

(* The heap's contract — pops come out as a stable sort by (time, push
   sequence) — is what makes the whole simulation deterministic, and the
   SoA heap's sift and slot code is exactly the kind of index arithmetic
   a model test catches.  Ops are interleaved pushes (Some time) and pops
   (None) against a set ordered by (time, seq).  Each payload is its own
   [(time, seq)], so a pop must return the model's minimum, payload
   included; [size] and [next_time] must agree after every op. *)
module Time_seq = Set.Make (struct
  type t = int * int

  let compare = compare
end)

let event_queue_agrees_with_model ops =
  let q = Event_queue.create () in
  let model = ref Time_seq.empty and pending = ref 0 and seq = ref 0 in
  let pop_agrees () =
    let least = Time_seq.min_elt_opt !model in
    Event_queue.next_time q = (match least with Some (t, _) -> t | None -> max_int)
    &&
    match (Event_queue.pop q, least) with
    | None, None -> true
    | Some (t, payload), Some ((mt, _) as m) ->
        model := Time_seq.remove m !model;
        decr pending;
        t = mt && payload = m
    | Some _, None | None, Some _ -> false
  in
  let step = function
    | Some time ->
        Event_queue.push q ~time (time, !seq);
        model := Time_seq.add (time, !seq) !model;
        incr seq;
        incr pending;
        true
    | None -> pop_agrees ()
  in
  let rec drain () = Time_seq.is_empty !model || (pop_agrees () && drain ()) in
  List.for_all (fun op -> step op && Event_queue.size q = !pending) ops
  && drain ()
  && Event_queue.next_time q = max_int
  && Event_queue.peek_time q = None

let qcheck_event_queue_vs_model =
  QCheck.Test.make
    ~name:"event_queue: pop order = stable sort by (time, seq) under interleaved push/pop"
    ~count:200
    QCheck.(list (option (int_bound 1000)))
    event_queue_agrees_with_model

(* The same contract at the depths the fabric runs reach (fabric-open
   averages 5.5k pending events, fabric-shed peaks at 16k).  4-ary index
   arithmetic only goes wrong below depth 3, and a reused payload slot
   only after many pop/push cycles, so each run fills the heap to a few
   thousand events, churns at a steady depth, then drains — over 64
   distinct times, so ties are everywhere. *)
let qcheck_event_queue_deep_churn =
  let gen =
    QCheck.Gen.(
      let op push_weight =
        frequency
          [ (push_weight, map Option.some (int_bound 63)); (4 - push_weight, return None) ]
      in
      let* fill = list_size (int_range 2_000 8_000) (op 3) in
      let* churn = list_size (int_range 2_000 8_000) (op 2) in
      return (fill @ churn))
  in
  QCheck.Test.make
    ~name:"event_queue: payloads pop by (time, seq) through thousands of tie-heavy ops"
    ~count:20
    (QCheck.make ~print:(fun ops -> Printf.sprintf "<%d ops>" (List.length ops)) gen)
    event_queue_agrees_with_model

(* --- Partition lending: ownership, no stranding, FIFO drain ------- *)

(* A random program of {spawn jobs, sleep, toggle lend/reclaim} against a
   [2;1] elastic carve.  Jobs land on partition 1's last *current* core,
   so they ride every re-home.  Invariants, checked synchronously after
   every operation (the controller's segment is host-atomic):

   - every core belongs to exactly one partition handle at every step;
   - the instant a lend returns, no job fiber sits on the moved core;
   - per-queue FIFO across drain/re-home: with the engine's plain FIFO
     dispatch, the completion stream on each core must be ascending in
     spawn id — a drain that reordered or interleaved its block would
     break the subsequence. *)
let qcheck_lending_invariants =
  QCheck.Test.make
    ~name:"partition lending: exclusive ownership, no stranded fiber, FIFO drain"
    ~count:40
    QCheck.(list_of_size Gen.(1 -- 14) (pair (int_bound 2) (int_bound 5)))
    (fun ops ->
      let module Machine = Mv_engine.Machine in
      let module Exec = Mv_engine.Exec in
      let module Topology = Mv_hw.Topology in
      let machine =
        Machine.create ~config:{ Machine.default_config with partitions = [ 2; 1 ] } ()
      in
      let exec = machine.Machine.exec in
      let topo = machine.Machine.topo in
      let hvm = Mv_hvm.Hvm.create machine ~ros:(Mv_ros.Kernel.create machine) in
      let lendc = List.nth (Topology.cores_of topo 1) 1 in
      let bad = ref None in
      let note msg = if !bad = None then bad := Some msg in
      let check_ownership () =
        let owners = Array.make (Topology.ncores topo) 0 in
        List.iter
          (fun p ->
            List.iter (fun c -> owners.(c) <- owners.(c) + 1) (Mv_hw.Partition.cores p))
          (Topology.partitions topo);
        Array.iteri
          (fun c k ->
            if k <> 1 then note (Printf.sprintf "core %d in %d partitions" c k))
          owners
      in
      let job_tids = Hashtbl.create 32 in
      let next_job = ref 0 in
      let completions = ref [] in
      let spawn_job () =
        let id = !next_job in
        incr next_job;
        let cores = Topology.cores_of topo 1 in
        let target = List.nth cores (List.length cores - 1) in
        let th =
          Exec.spawn exec ~cpu:target
            ~name:(Printf.sprintf "job-%d" id)
            (fun () ->
              Machine.charge machine (300 + (100 * (id mod 4)));
              completions := (id, Exec.cpu_of (Exec.self exec)) :: !completions)
        in
        Hashtbl.replace job_tids (Exec.tid th) id
      in
      ignore
        (Exec.spawn exec ~cpu:0 ~name:"controller" (fun () ->
             List.iter
               (fun (kind, arg) ->
                 (match kind with
                 | 0 -> for _ = 0 to arg mod 3 do spawn_job () done
                 | 1 -> Exec.sleep exec ((arg + 1) * 400)
                 | _ ->
                     if Topology.partition_of topo lendc = 1 then begin
                       Mv_hvm.Hvm.lend_core hvm ~core:lendc ~dst:2;
                       (* No job may remain on the moved core's queue. *)
                       List.iter
                         (fun th ->
                           if Hashtbl.mem job_tids (Exec.tid th) then
                             note
                               (Printf.sprintf "job %d stranded on lent core"
                                  (Hashtbl.find job_tids (Exec.tid th))))
                         (Exec.runq exec ~cpu:lendc)
                     end
                     else Mv_hvm.Hvm.reclaim_core hvm ~core:lendc);
                 check_ownership ())
               ops;
             if Topology.partition_of topo lendc <> 1 then
               Mv_hvm.Hvm.reclaim_core hvm ~core:lendc));
      Mv_engine.Sim.run machine.Machine.sim;
      (match !bad with
      | Some msg -> QCheck.Test.fail_reportf "%s" msg
      | None -> ());
      let done_ids = List.map fst !completions in
      if List.length done_ids <> !next_job then
        QCheck.Test.fail_reportf "%d jobs spawned, %d completed" !next_job
          (List.length done_ids);
      if List.sort_uniq compare done_ids <> List.sort compare done_ids then
        QCheck.Test.fail_reportf "a job completed twice";
      let stream = List.rev !completions in
      List.for_all
        (fun cpu ->
          let mine = List.filter_map (fun (i, c) -> if c = cpu then Some i else None) stream in
          let rec increasing = function
            | a :: (b :: _ as rest) -> a < b && increasing rest
            | _ -> true
          in
          increasing mine
          || QCheck.Test.fail_reportf "core %d ran jobs out of spawn order: [%s]" cpu
               (String.concat ";" (List.map string_of_int mine)))
        (List.init (Topology.ncores topo) (fun c -> c)))

let suite =
  [
    to_alcotest qcheck_plan_deterministic;
    to_alcotest qcheck_plan_site_independence;
    to_alcotest qcheck_plan_rate_extremes;
    to_alcotest qcheck_sites_string_roundtrip;
    to_alcotest qcheck_addr_indices_roundtrip;
    to_alcotest qcheck_addr_page_roundtrip;
    to_alcotest qcheck_page_table_map_walk_unmap;
    to_alcotest qcheck_mixed_vs_model;
    to_alcotest qcheck_walk_levels;
    to_alcotest qcheck_tlb_range_invalidate;
    to_alcotest qcheck_dedup_at_most_once;
    to_alcotest qcheck_token_bucket_window_bound;
    to_alcotest qcheck_ring_occupancy_bounded;
    to_alcotest qcheck_per_group_fifo_under_shedding;
    to_alcotest qcheck_pm_fallback_order;
    to_alcotest qcheck_pm_alloc_near_local;
    to_alcotest qcheck_pm_hinted_alloc_vs_model;
    to_alcotest qcheck_pm_conservation;
    to_alcotest qcheck_event_queue_vs_model;
    to_alcotest qcheck_event_queue_deep_churn;
    to_alcotest qcheck_lending_invariants;
  ]
