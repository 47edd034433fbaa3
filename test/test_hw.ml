(* Tests for the hardware model: addresses, page tables (including the
   lower-half merger semantics Multiverse relies on), TLB, physical memory,
   topology, and the CR0.WP kernel-write subtlety from Section 4.4. *)

open Mv_hw

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Addr --- *)

let test_addr_halves () =
  check_bool "0 is lower" true (Addr.is_lower_half 0);
  check_bool "below 2^47 is lower" true (Addr.is_lower_half (Addr.lower_half_limit - 1));
  check_bool "2^47 is higher" true (Addr.is_higher_half Addr.higher_half_base);
  check_bool "2^47 not lower" false (Addr.is_lower_half Addr.higher_half_base)

let test_addr_indices_roundtrip () =
  let a = Addr.of_indices ~pml4:17 ~pdpt:255 ~pd:3 ~pt:511 ~offset:123 in
  check_int "pml4" 17 (Addr.pml4_index a);
  check_int "pdpt" 255 (Addr.pdpt_index a);
  check_int "pd" 3 (Addr.pd_index a);
  check_int "pt" 511 (Addr.pt_index a);
  check_int "offset" 123 (Addr.page_offset a)

let test_addr_lower_half_pml4_range () =
  (* Lower-half addresses occupy exactly PML4 slots 0..255 — the slots the
     merger copies. *)
  let top_lower = Addr.lower_half_limit - 1 in
  check_int "last lower-half slot" 255 (Addr.pml4_index top_lower);
  check_int "first higher-half slot" 256 (Addr.pml4_index Addr.higher_half_base)

let test_addr_canonical () =
  Alcotest.(check int64)
    "higher half sign-extends" 0xffff_8000_0000_0000L
    (Addr.canonical64 Addr.higher_half_base);
  Alcotest.(check int64) "lower half unchanged" 0x7000L (Addr.canonical64 0x7000)

let test_addr_align () =
  check_int "align_down" 0x1000 (Addr.align_down 0x1fff);
  check_int "align_up" 0x2000 (Addr.align_up 0x1001);
  check_int "align_up idempotent on aligned" 0x1000 (Addr.align_up 0x1000)

let qcheck_addr_page_roundtrip =
  QCheck.Test.make ~name:"addr: page_of/base_of_page roundtrip"
    QCheck.(int_bound (Addr.space_limit - 1))
    (fun a ->
      let p = Addr.page_of a in
      Addr.base_of_page p <= a
      && a < Addr.base_of_page p + Addr.page_size
      && Addr.is_page_aligned (Addr.base_of_page p))

(* --- Page_table --- *)

let pf = Page_table.(f_present lor f_writable lor f_user)

let test_pt_map_lookup () =
  let pt = Page_table.create () in
  let a = 0x400000 in
  Page_table.map pt a ~frame:42 ~flags:pf;
  (match Page_table.lookup pt a with
  | Some e ->
      check_int "frame" 42 e.Page_table.frame;
      check_bool "present" true Page_table.(has e.pte_flags f_present)
  | None -> Alcotest.fail "mapping missing");
  check_bool "other page unmapped" true (Page_table.lookup pt (a + 0x1000) = None)

let test_pt_unmap () =
  let pt = Page_table.create () in
  Page_table.map pt 0x1000 ~frame:1 ~flags:pf;
  check_bool "unmap hits" true (Page_table.unmap pt 0x1000);
  check_bool "gone" true (Page_table.lookup pt 0x1000 = None);
  check_bool "second unmap misses" false (Page_table.unmap pt 0x1000)

let test_pt_protect () =
  let pt = Page_table.create () in
  Page_table.map pt 0x1000 ~frame:1 ~flags:pf;
  let ro = Page_table.(f_present lor f_user) in
  check_bool "protect hits" true (Page_table.protect pt 0x1000 ~flags:ro);
  match Page_table.lookup pt 0x1000 with
  | Some e -> check_bool "now read-only" false Page_table.(has e.pte_flags f_writable)
  | None -> Alcotest.fail "mapping missing"

let test_pt_walk_levels () =
  let pt = Page_table.create () in
  let a = Addr.of_indices ~pml4:1 ~pdpt:2 ~pd:3 ~pt:4 ~offset:0 in
  let _, lvl_empty = Page_table.walk pt a in
  check_int "stops at pml4 when empty" 1 lvl_empty;
  Page_table.map pt a ~frame:9 ~flags:pf;
  let entry, lvl_full = Page_table.walk pt a in
  check_bool "found" true (entry <> None);
  check_int "walks 4 levels" 4 lvl_full;
  (* A sibling sharing only the PML4 slot stops at level 2. *)
  let sibling = Addr.of_indices ~pml4:1 ~pdpt:7 ~pd:0 ~pt:0 ~offset:0 in
  let _, lvl_sib = Page_table.walk pt sibling in
  check_int "sibling stops at pdpt" 2 lvl_sib

let test_pt_merger_shares_subtrees () =
  (* The heart of the merged address space: after copying the lower-half
     PML4, mappings made by the ROS below an already-present slot become
     visible to the HRT without a re-merge. *)
  let ros = Page_table.create () in
  let hrt = Page_table.create () in
  let a = 0x7f0000000000 in
  Page_table.map ros a ~frame:1 ~flags:pf;
  let copied = Page_table.copy_lower_half ~src:ros ~dst:hrt in
  check_int "one populated slot copied" 1 copied;
  check_bool "hrt sees mapping" true (Page_table.lookup hrt a <> None);
  (* Same PML4 slot, new page: visible without re-merge. *)
  let b = a + 0x1000 in
  Page_table.map ros b ~frame:2 ~flags:pf;
  check_bool "shared subtree: new mapping visible" true (Page_table.lookup hrt b <> None)

let test_pt_merger_stale_toplevel () =
  (* A mapping under a fresh PML4 slot is NOT visible until re-merge: this
     is the repeat-fault situation Nautilus detects (Section 4.4). *)
  let ros = Page_table.create () in
  let hrt = Page_table.create () in
  Page_table.map ros 0x1000 ~frame:1 ~flags:pf;
  ignore (Page_table.copy_lower_half ~src:ros ~dst:hrt);
  let gen_at_merge = Page_table.lower_half_generation hrt in
  (* ROS maps under PML4 slot 2 — a slot that was empty at merge time. *)
  let far = Addr.of_indices ~pml4:2 ~pdpt:0 ~pd:0 ~pt:0 ~offset:0 in
  Page_table.map ros far ~frame:3 ~flags:pf;
  check_bool "hrt does not see it" true (Page_table.lookup hrt far = None);
  check_bool "generation diverged" true
    (Page_table.lower_half_generation ros <> gen_at_merge);
  ignore (Page_table.copy_lower_half ~src:ros ~dst:hrt);
  check_bool "visible after re-merge" true (Page_table.lookup hrt far <> None)

let test_pt_clear_lower_half () =
  let pt = Page_table.create () in
  Page_table.map pt 0x1000 ~frame:1 ~flags:pf;
  Page_table.map pt Addr.higher_half_base ~frame:2 ~flags:Page_table.f_present;
  Page_table.clear_lower_half pt;
  check_bool "lower gone" true (Page_table.lookup pt 0x1000 = None);
  check_bool "higher intact" true (Page_table.lookup pt Addr.higher_half_base <> None)

let qcheck_pt_map_unmap =
  QCheck.Test.make ~name:"page table: mapped set matches model"
    QCheck.(small_list (pair (int_bound 4095) bool))
    (fun ops ->
      let pt = Page_table.create () in
      let model = Hashtbl.create 16 in
      List.iter
        (fun (page, do_map) ->
          let addr = Addr.base_of_page page in
          if do_map then begin
            Page_table.map pt addr ~frame:page ~flags:pf;
            Hashtbl.replace model page ()
          end
          else begin
            ignore (Page_table.unmap pt addr);
            Hashtbl.remove model page
          end)
        ops;
      Page_table.count_mapped pt = Hashtbl.length model)

(* --- Tlb --- *)

let test_tlb_hit_miss () =
  let tlb = Tlb.create ~capacity:2 () in
  let pte = Page_table.{ frame = 1; pte_flags = pf } in
  check_bool "miss first" true (Tlb.lookup tlb ~page:1 = None);
  Tlb.fill tlb ~page:1 pte;
  check_bool "hit after fill" true (Tlb.lookup tlb ~page:1 <> None);
  check_int "hits" 1 (Tlb.hits tlb);
  check_int "misses" 1 (Tlb.misses tlb)

let test_tlb_eviction () =
  let tlb = Tlb.create ~capacity:2 () in
  let pte n = Page_table.{ frame = n; pte_flags = pf } in
  Tlb.fill tlb ~page:1 (pte 1);
  Tlb.fill tlb ~page:2 (pte 2);
  Tlb.fill tlb ~page:3 (pte 3);
  (* FIFO: page 1 evicted. *)
  check_bool "oldest evicted" true (Tlb.lookup tlb ~page:1 = None);
  check_bool "newest present" true (Tlb.lookup tlb ~page:3 <> None)

let test_tlb_flush_invalidate () =
  let tlb = Tlb.create () in
  let pte = Page_table.{ frame = 1; pte_flags = pf } in
  Tlb.fill tlb ~page:7 pte;
  Tlb.invalidate_page tlb ~page:7;
  check_bool "invalidated" true (Tlb.lookup tlb ~page:7 = None);
  Tlb.fill tlb ~page:8 pte;
  Tlb.flush tlb;
  check_bool "flushed" true (Tlb.lookup tlb ~page:8 = None);
  check_int "occupancy zero" 0 (int_of_float (Tlb.occupancy tlb *. 100.))

(* --- Phys_mem --- *)

let test_phys_partitions () =
  let pm = Phys_mem.create ~frames_per_zone:100 ~sockets:2 ~hrt_fraction:0.25 () in
  check_int "ros frames" 150 (Phys_mem.total pm Phys_mem.Ros_region);
  check_int "hrt frames" 50 (Phys_mem.total pm Phys_mem.Hrt_region);
  let f_ros = Phys_mem.alloc pm Phys_mem.Ros_region in
  let f_hrt = Phys_mem.alloc pm Phys_mem.Hrt_region in
  check_bool "regions tracked" true
    (Phys_mem.region_of_frame pm f_ros = Phys_mem.Ros_region
    && Phys_mem.region_of_frame pm f_hrt = Phys_mem.Hrt_region)

let test_phys_numa_preference () =
  let pm = Phys_mem.create ~frames_per_zone:100 ~sockets:2 ~hrt_fraction:0.25 () in
  let f = Phys_mem.alloc pm ~zone:1 Phys_mem.Ros_region in
  check_int "frame from requested zone" 1 (Phys_mem.zone_of_frame pm f)

let test_phys_exhaustion_and_free () =
  let pm = Phys_mem.create ~frames_per_zone:4 ~sockets:1 ~hrt_fraction:0.5 () in
  let f1 = Phys_mem.alloc pm Phys_mem.Hrt_region in
  let _f2 = Phys_mem.alloc pm Phys_mem.Hrt_region in
  Alcotest.check_raises "exhausted" Out_of_memory (fun () ->
      ignore (Phys_mem.alloc pm Phys_mem.Hrt_region));
  Phys_mem.free pm f1;
  let f3 = Phys_mem.alloc pm Phys_mem.Hrt_region in
  check_int "recycled frame" f1 f3;
  Alcotest.check_raises "double free"
    (Invalid_argument
       (Printf.sprintf "Phys_mem.free: frame %d (zone %d) not allocated" f1
          (Phys_mem.zone_of_frame pm f1)))
    (fun () ->
      Phys_mem.free pm f1;
      Phys_mem.free pm f1)

(* --- Topology --- *)

let test_topology_partition () =
  let topo = Topology.create ~hrt_parts:[ 2 ] () in
  Alcotest.(check (list int)) "hrt cores are the last two" [ 6; 7 ] (Topology.cores_of topo 1);
  check_int "six ros cores" 6 (List.length (Topology.ros_cores topo));
  check_bool "same socket" true (Topology.same_socket topo 0 3);
  check_bool "cross socket" false (Topology.same_socket topo 0 4);
  check_int "first hrt core" 6 (List.hd (Topology.cores_of topo 1));
  check_int "two partitions" 2 (Topology.nparts topo);
  check_int "one hrt partition" 1 (List.length (Topology.hrt_partitions topo));
  check_int "core 7 owned by partition 1" 1 (Topology.partition_of topo 7);
  check_int "core 0 owned by the ros" 0 (Topology.partition_of topo 0)

let test_topology_multi_partition () =
  let topo = Topology.create ~hrt_parts:[ 2; 1 ] () in
  check_int "three partitions" 3 (Topology.nparts topo);
  Alcotest.(check (list int)) "partition 1 gets the lower carve" [ 5; 6 ] (Topology.cores_of topo 1);
  Alcotest.(check (list int)) "partition 2 gets the top core" [ 7 ] (Topology.cores_of topo 2);
  Alcotest.(check (list int)) "ros keeps the rest" [ 0; 1; 2; 3; 4 ] (Topology.ros_cores topo);
  check_bool "partition 2 is hrt" true (Partition.is_hrt (Topology.partition topo 2))

let test_topology_reassign () =
  let topo = Topology.create ~hrt_parts:[ 2; 1 ] () in
  Topology.reassign topo ~core:5 2;
  check_int "core 5 moved to partition 2" 2 (Topology.partition_of topo 5);
  check_int "home is still partition 1" 1 (Topology.home_of topo 5);
  Alcotest.(check (list int)) "partition 2 now holds both" [ 5; 7 ] (Topology.cores_of topo 2);
  Alcotest.(check (list int)) "partition 1 shrank" [ 6 ] (Topology.cores_of topo 1);
  check_bool "role still hrt" true (Topology.role topo 5 = Topology.Hrt_core);
  Topology.reassign topo ~core:5 0;
  check_bool "lent to ros flips the role" true (Topology.role topo 5 = Topology.Ros_core);
  Alcotest.(check (list int)) "ros grew" [ 0; 1; 2; 3; 4; 5 ] (Topology.ros_cores topo)

let test_topology_distance () =
  let topo = Topology.create ~sockets:4 ~cores_per_socket:32 ~hrt_parts:[ 16 ] () in
  check_int "local" 0 (Topology.distance topo 0 31);
  check_int "one hop" 1 (Topology.distance topo 0 32);
  check_int "three hops" 3 (Topology.distance topo 0 127);
  check_bool "symmetric" true
    (Topology.distance topo 127 0 = Topology.distance topo 0 127);
  check_int "socket_of" 3 (Topology.socket_of topo 100);
  (* Two sockets reduce to the same_socket boolean. *)
  let two = Topology.create () in
  check_int "2-socket local" 0 (Topology.distance two 0 3);
  check_int "2-socket remote" 1 (Topology.distance two 0 4)

(* The 4x32 box with HRT cores 112-127: the ROS keeps all of sockets 0-2
   and cores 96-111 of socket 3. *)
let test_topology_nearest_ros_core () =
  let topo = Topology.create ~sockets:4 ~cores_per_socket:32 ~hrt_parts:[ 16 ] () in
  check_int "socket-3 HRT core: first of socket 3's ROS cores" 96
    (Topology.nearest_ros_core topo ~rotate:0 127);
  check_int "ties rotate in id order" 97 (Topology.nearest_ros_core topo ~rotate:1 120);
  check_int "rotation wraps over the 16 tied cores" 96
    (Topology.nearest_ros_core topo ~rotate:16 112);
  check_int "a ROS core ties with all 32 cores of its socket" 40
    (Topology.nearest_ros_core topo ~rotate:8 32);
  (* Lend socket 3's ROS cores away: the nearest ROS cores are then one hop
     away on socket 2. *)
  List.iter (fun c -> Topology.reassign topo ~core:c 1) (List.init 16 (fun i -> 96 + i));
  check_int "next socket when the local one has no ROS core" 65
    (Topology.nearest_ros_core topo ~rotate:1 127)

let test_phys_alloc_near () =
  let pm =
    Phys_mem.create ~frames_per_zone:10 ~cores_per_socket:2 ~sockets:4
      ~hrt_fraction:0.2 ()
  in
  let f = Phys_mem.alloc_near pm ~core:5 Phys_mem.Ros_region in
  check_int "core 5 allocates in zone 2" 2 (Phys_mem.zone_of_frame pm f);
  Alcotest.(check (list int))
    "fallback from zone 2 is distance-ordered" [ 2; 1; 3; 0 ]
    (Phys_mem.fallback_order pm ~zone:2);
  Alcotest.(check (list int))
    "fallback from zone 0 is the flat order" [ 0; 1; 2; 3 ]
    (Phys_mem.fallback_order pm ~zone:0)

let test_topology_invalid () =
  Alcotest.check_raises "all cores HRT rejected"
    (Invalid_argument
       "Topology.create: partition spec [8] leaves no ROS core on the 2x4 machine")
    (fun () -> ignore (Topology.create ~hrt_parts:[ 8 ] ()));
  Alcotest.check_raises "greedy spec rejected"
    (Invalid_argument
       "Topology.create: partition spec [4,4] leaves no ROS core on the 2x4 machine")
    (fun () -> ignore (Topology.create ~hrt_parts:[ 4; 4 ] ()));
  Alcotest.check_raises "empty partition rejected"
    (Invalid_argument
       "Topology.create: partition 2 of spec [2,0] must have at least one core")
    (fun () -> ignore (Topology.create ~hrt_parts:[ 2; 0 ] ()))

(* --- Mmu --- *)

let costs = Costs.default

let test_mmu_hit_and_fault () =
  let cpu = Cpu.create ~core_id:0 in
  let root = Page_table.create () in
  Cpu.load_cr3 cpu root;
  Page_table.map root 0x1000 ~frame:5 ~flags:pf;
  (match Mmu.access costs cpu root 0x1000 Mmu.Read with
  | Mmu.Hit (e, _) -> check_int "frame" 5 e.Page_table.frame
  | _ -> Alcotest.fail "expected hit");
  match Mmu.access costs cpu root 0x2000 Mmu.Read with
  | Mmu.Fault (Mmu.Not_present, _) -> ()
  | _ -> Alcotest.fail "expected not-present fault"

let test_mmu_tlb_caches () =
  let cpu = Cpu.create ~core_id:0 in
  let root = Page_table.create () in
  Cpu.load_cr3 cpu root;
  Page_table.map root 0x1000 ~frame:5 ~flags:pf;
  let cost_of = function
    | Mmu.Hit (_, c) -> c
    | Mmu.Silent_write (_, c) -> c
    | Mmu.Fault (_, c) -> c
  in
  let first = cost_of (Mmu.access costs cpu root 0x1000 Mmu.Read) in
  let second = cost_of (Mmu.access costs cpu root 0x1000 Mmu.Read) in
  check_bool "cached lookup cheaper" true (second < first)

let test_mmu_ring0_wp_semantics () =
  (* Section 4.4: in ring 0 with CR0.WP clear, a write to a read-only page
     silently succeeds ("mysterious memory corruption"); setting WP restores
     the fault. *)
  let cpu = Cpu.create ~core_id:0 in
  let root = Page_table.create () in
  Cpu.load_cr3 cpu root;
  let ro = Page_table.(f_present lor f_user) in
  Page_table.map root 0x1000 ~frame:5 ~flags:ro;
  cpu.Cpu.ring <- 0;
  cpu.Cpu.cr0_wp <- false;
  (match Mmu.access costs cpu root 0x1000 Mmu.Write with
  | Mmu.Silent_write _ -> ()
  | _ -> Alcotest.fail "expected silent corrupting write");
  cpu.Cpu.cr0_wp <- true;
  (match Mmu.access costs cpu root 0x1000 Mmu.Write with
  | Mmu.Fault (Mmu.Protection, _) -> ()
  | _ -> Alcotest.fail "expected protection fault with WP set");
  (* Ring 3 faults regardless of WP. *)
  cpu.Cpu.ring <- 3;
  cpu.Cpu.cr0_wp <- false;
  match Mmu.access costs cpu root 0x1000 Mmu.Write with
  | Mmu.Fault (Mmu.Protection, _) -> ()
  | _ -> Alcotest.fail "expected user protection fault"

let test_mmu_stale_tlb_after_protect () =
  let cpu = Cpu.create ~core_id:0 in
  let root = Page_table.create () in
  Cpu.load_cr3 cpu root;
  Page_table.map root 0x1000 ~frame:5 ~flags:pf;
  ignore (Mmu.access costs cpu root 0x1000 Mmu.Write);
  (* Downgrade to read-only; the PTE object is shared with the TLB, so the
     change is visible without an explicit invalidation (hardware would
     need an invlpg; we model the conservative case). *)
  ignore (Page_table.protect root 0x1000 ~flags:Page_table.(f_present lor f_user));
  cpu.Cpu.ring <- 3;
  match Mmu.access costs cpu root 0x1000 Mmu.Write with
  | Mmu.Fault (Mmu.Protection, _) -> ()
  | _ -> Alcotest.fail "expected fault after protect"

let suite =
  [
    ("addr: canonical halves", `Quick, test_addr_halves);
    ("addr: index round trip", `Quick, test_addr_indices_roundtrip);
    ("addr: lower half is PML4 0..255", `Quick, test_addr_lower_half_pml4_range);
    ("addr: canonical 64-bit form", `Quick, test_addr_canonical);
    ("addr: alignment", `Quick, test_addr_align);
    QCheck_alcotest.to_alcotest qcheck_addr_page_roundtrip;
    ("page-table: map/lookup", `Quick, test_pt_map_lookup);
    ("page-table: unmap", `Quick, test_pt_unmap);
    ("page-table: protect", `Quick, test_pt_protect);
    ("page-table: walk depth", `Quick, test_pt_walk_levels);
    ("page-table: merger shares subtrees", `Quick, test_pt_merger_shares_subtrees);
    ("page-table: stale top-level slot needs re-merge", `Quick, test_pt_merger_stale_toplevel);
    ("page-table: clear lower half", `Quick, test_pt_clear_lower_half);
    QCheck_alcotest.to_alcotest qcheck_pt_map_unmap;
    ("tlb: hit/miss", `Quick, test_tlb_hit_miss);
    ("tlb: eviction", `Quick, test_tlb_eviction);
    ("tlb: flush/invalidate", `Quick, test_tlb_flush_invalidate);
    ("phys: partitions", `Quick, test_phys_partitions);
    ("phys: NUMA preference", `Quick, test_phys_numa_preference);
    ("phys: exhaustion and free", `Quick, test_phys_exhaustion_and_free);
    ("phys: alloc_near and fallback order", `Quick, test_phys_alloc_near);
    ("topology: partition", `Quick, test_topology_partition);
    ("topology: multi-partition spec", `Quick, test_topology_multi_partition);
    ("topology: reassign under lending", `Quick, test_topology_reassign);
    ("topology: NUMA distance", `Quick, test_topology_distance);
    ("topology: nearest ROS core with tie rotation", `Quick, test_topology_nearest_ros_core);
    ("topology: invalid geometry", `Quick, test_topology_invalid);
    ("mmu: hit and not-present fault", `Quick, test_mmu_hit_and_fault);
    ("mmu: tlb caches translations", `Quick, test_mmu_tlb_caches);
    ("mmu: ring0 WP semantics", `Quick, test_mmu_ring0_wp_semantics);
    ("mmu: protect visible through tlb", `Quick, test_mmu_stale_tlb_after_protect);
  ]
