(* Tests for the HVM and AeroKernel layers: event channels (latencies per
   Figure 2), state superpositions, the Nautilus boot/thread/fault/syscall
   machinery, and HRT<->ROS signaling. *)

module Machine = Mv_engine.Machine
module Sim = Mv_engine.Sim
module Exec = Mv_engine.Exec
module Nautilus = Mv_aerokernel.Nautilus
module Event_channel = Mv_hvm.Event_channel
module Hvm = Mv_hvm.Hvm
module Superposition = Mv_hvm.Superposition

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let costs = Mv_hw.Costs.default

(* Round-trip time of one request/complete cycle through a channel, with
   the server doing zero work, measured from the caller's clock. *)
let measure_rtt ?config ~kind ~ros_core ~hrt_core () =
  let machine = Machine.create ?config () in
  let ch = Event_channel.create machine ~kind ~ros_core ~hrt_core in
  ignore
    (Exec.spawn machine.Machine.exec ~cpu:ros_core ~name:"server" (fun () ->
         let req = Event_channel.serve_next ch in
         req.Event_channel.req_run ();
         Event_channel.complete ch));
  let rtt = ref 0 in
  ignore
    (Exec.spawn machine.Machine.exec ~cpu:hrt_core ~name:"caller" (fun () ->
         let t0 = Exec.local_now machine.Machine.exec in
         Event_channel.call ch { Event_channel.req_kind = "noop"; req_run = (fun () -> ()) };
         rtt := Exec.local_now machine.Machine.exec - t0));
  Sim.run machine.Machine.sim;
  !rtt

let test_channel_async_latency () =
  let rtt = measure_rtt ~kind:Event_channel.Async ~ros_core:0 ~hrt_core:7 () in
  (* ~25K cycles plus hypercall signaling; must be the right order. *)
  check_bool
    (Printf.sprintf "async rtt %d within 20%% of 25000" rtt)
    true
    (rtt >= costs.Mv_hw.Costs.async_channel_rtt
    && rtt <= costs.Mv_hw.Costs.async_channel_rtt * 12 / 10)

let test_channel_sync_socket_distance () =
  let same = measure_rtt ~kind:Event_channel.Sync ~ros_core:5 ~hrt_core:7 () in
  let cross = measure_rtt ~kind:Event_channel.Sync ~ros_core:0 ~hrt_core:7 () in
  check_bool "same-socket faster than cross-socket" true (same < cross);
  check_bool "sync orders of magnitude below async" true
    (cross * 10 < costs.Mv_hw.Costs.async_channel_rtt)

(* The request and reply legs split the configured RTT between them, so
   a round trip costs all of it whatever its parity.  On 4x8 the
   one-hop RTT (1060) is even and the three-hop RTT (1791) odd; the
   signalling on top must be the same at both distances. *)
let test_channel_odd_rtt () =
  let config = { Machine.default_config with sockets = 4; cores_per_socket = 8 } in
  let overhead ~ros_core ~distance =
    measure_rtt ~config ~kind:Event_channel.Sync ~ros_core ~hrt_core:31 ()
    - Mv_hw.Costs.sync_channel_rtt costs ~distance
  in
  check_bool "the three-hop RTT is odd" true (Mv_hw.Costs.sync_channel_rtt costs ~distance:3 mod 2 = 1);
  check_int "signalling over the RTT: 3 hops = 1 hop" (overhead ~ros_core:16 ~distance:1)
    (overhead ~ros_core:0 ~distance:3)

let test_channel_queueing () =
  (* Two callers share one server endpoint; both must complete. *)
  let machine = Machine.create () in
  let ch = Event_channel.create machine ~kind:Event_channel.Async ~ros_core:0 ~hrt_core:7 in
  let served = ref [] in
  ignore
    (Exec.spawn machine.Machine.exec ~cpu:0 ~name:"server" (fun () ->
         for _ = 1 to 2 do
           let req = Event_channel.serve_next ch in
           req.Event_channel.req_run ();
           Event_channel.complete ch
         done));
  let caller name =
    Exec.spawn machine.Machine.exec ~cpu:7 ~name (fun () ->
        Event_channel.call ch
          { Event_channel.req_kind = name; req_run = (fun () -> served := name :: !served) })
  in
  ignore (caller "a");
  ignore (caller "b");
  Sim.run machine.Machine.sim;
  Alcotest.(check (list string)) "both served in order" [ "a"; "b" ] (List.rev !served)

let test_channel_post_fire_and_forget () =
  let machine = Machine.create () in
  let ch = Event_channel.create machine ~kind:Event_channel.Async ~ros_core:0 ~hrt_core:7 in
  let got = ref false in
  ignore
    (Exec.spawn machine.Machine.exec ~cpu:0 ~name:"server" (fun () ->
         let req = Event_channel.serve_next ch in
         req.Event_channel.req_run ();
         Event_channel.complete ch (* no-op for posts *)));
  Event_channel.post ch { Event_channel.req_kind = "poison"; req_run = (fun () -> got := true) };
  Sim.run machine.Machine.sim;
  check_bool "posted request served" true !got

(* --- Nautilus --- *)

let boot_nk () =
  let machine = Machine.create () in
  let nk = Nautilus.create machine in
  let done_ = ref false in
  ignore
    (Exec.spawn machine.Machine.exec ~cpu:0 ~name:"booter" (fun () ->
         Nautilus.boot nk;
         done_ := true));
  Sim.run machine.Machine.sim;
  check_bool "booted" true (!done_ && Nautilus.booted nk);
  (machine, nk)

let test_nk_boot_takes_milliseconds () =
  let machine = Machine.create () in
  let nk = Nautilus.create machine in
  let took = ref 0 in
  ignore
    (Exec.spawn machine.Machine.exec ~cpu:0 ~name:"booter" (fun () ->
         let t0 = Exec.local_now machine.Machine.exec in
         Nautilus.boot nk;
         took := Exec.local_now machine.Machine.exec - t0));
  Sim.run machine.Machine.sim;
  check_bool "boot ~milliseconds" true
    (Mv_util.Cycles.to_ms !took >= 1.0 && Mv_util.Cycles.to_ms !took < 100.0)

let test_nk_cpu_setup () =
  let machine = Machine.create () in
  let nk = Nautilus.create machine in
  ignore nk;
  let hrt_core = List.hd (Mv_hw.Topology.cores_of machine.Machine.topo 1) in
  let cpu = machine.Machine.cpus.(hrt_core) in
  check_int "ring 0" 0 cpu.Mv_hw.Cpu.ring;
  check_bool "CR0.WP set (Section 4.4)" true cpu.Mv_hw.Cpu.cr0_wp;
  check_bool "IST configured (red-zone fix)" true cpu.Mv_hw.Cpu.ist_configured

let test_nk_thread_creation_cheap () =
  let machine, nk = boot_nk () in
  let ros_cost = ref 0 and nk_cost = ref 0 in
  ignore
    (Exec.spawn machine.Machine.exec ~cpu:0 ~name:"requester" (fun () ->
         let t0 = Exec.local_now machine.Machine.exec in
         let th = Nautilus.request_create_thread nk ~name:"hrt-t" (fun () -> ()) in
         nk_cost := Exec.local_now machine.Machine.exec - t0;
         Nautilus.join_thread nk th;
         ros_cost := Mv_hw.Costs.default.Mv_hw.Costs.thread_create_ros));
  Sim.run machine.Machine.sim;
  check_bool "nk thread creation far below Linux clone" true (!nk_cost * 4 < !ros_cost);
  check_int "thread tracked" 1 (Nautilus.thread_count nk)

let test_nk_nested_threads () =
  let machine, nk = boot_nk () in
  let order = ref [] in
  ignore
    (Exec.spawn machine.Machine.exec ~cpu:0 ~name:"requester" (fun () ->
         let top =
           Nautilus.request_create_thread nk ~name:"top" (fun () ->
               let nested =
                 Nautilus.create_thread_local nk ~name:"nested" (fun () ->
                     order := "nested" :: !order)
               in
               Nautilus.join_thread nk nested;
               order := "top" :: !order)
         in
         Nautilus.join_thread nk top));
  Sim.run machine.Machine.sim;
  Alcotest.(check (list string)) "nested completes before top" [ "nested"; "top" ]
    (List.rev !order);
  check_int "both tracked" 2 (Nautilus.thread_count nk)

let test_nk_fault_forwarding_and_remerge () =
  let machine, nk = boot_nk () in
  let ros_pt = Mv_hw.Page_table.create () in
  let flags = Mv_hw.Page_table.(f_present lor f_writable lor f_user) in
  (* Give the ROS one mapping so slot 0 is populated at merge time. *)
  Mv_hw.Page_table.map ros_pt 0x1000 ~frame:1 ~flags;
  let forwards = ref [] in
  Nautilus.set_services nk
    {
      Nautilus.svc_forward_fault =
        (fun addr ~write ->
          forwards := (addr, write) :: !forwards;
          (* "The ROS handles it": install the mapping. *)
          Mv_hw.Page_table.map ros_pt (Mv_hw.Addr.align_down addr) ~frame:7 ~flags;
          Nautilus.Fault_fixed);
      svc_forward_syscall = (fun _ run -> run ());
      svc_request_remerge = (fun () -> ros_pt);
    };
  let hrt_core = List.hd (Mv_hw.Topology.cores_of machine.Machine.topo 1) in
  ignore
    (Exec.spawn machine.Machine.exec ~cpu:hrt_core ~name:"hrt" (fun () ->
         Nautilus.merge_lower_half nk ~from:ros_pt;
         (* Merged mapping is visible with no fault. *)
         Nautilus.access nk 0x1000 ~write:false;
         check_int "no forward yet" 0 (List.length !forwards);
         (* A page in an already-shared PML4 slot: one forward fixes it. *)
         Nautilus.access nk 0x2000 ~write:true;
         check_int "one forward" 1 (List.length !forwards);
         check_int "no remerge needed" 0 (Nautilus.stats_remerges nk);
         (* A page under a *fresh* top-level slot: the ROS fixes it but the
            HRT's PML4 copy stays stale -> repeat fault -> re-merge. *)
         let far = Mv_hw.Addr.of_indices ~pml4:3 ~pdpt:0 ~pd:0 ~pt:0 ~offset:0 in
         Nautilus.access nk far ~write:true;
         check_int "re-merge happened" 1 (Nautilus.stats_remerges nk)));
  Sim.run machine.Machine.sim;
  check_bool "faults were forwarded" true (Nautilus.stats_faults_forwarded nk >= 2)

(* Two HRT partitions merged from the same process: the stale-merge
   generation is keyed per Nautilus instance, so one partition's re-merge
   must never mark the other fresh — each detects the ROS's lower-half
   mutation and re-merges on its own. *)
let test_two_hrt_merge_generations () =
  let machine = Machine.create ~config:{ Machine.default_config with partitions = [ 1; 1 ] } () in
  let exec = machine.Machine.exec in
  let ros_pt = Mv_hw.Page_table.create () in
  let flags = Mv_hw.Page_table.(f_present lor f_writable lor f_user) in
  Mv_hw.Page_table.map ros_pt 0x1000 ~frame:1 ~flags;
  let nk1 = Nautilus.create ~part:1 machine in
  let nk2 = Nautilus.create ~part:2 machine in
  let services =
    {
      Nautilus.svc_forward_fault = (fun _ ~write:_ -> Nautilus.Fault_fixed);
      svc_forward_syscall = (fun _ run -> run ());
      svc_request_remerge = (fun () -> ros_pt);
    }
  in
  Nautilus.set_services nk1 services;
  Nautilus.set_services nk2 services;
  let c1 = List.hd (Mv_hw.Topology.cores_of machine.Machine.topo 1) in
  ignore
    (Exec.spawn exec ~cpu:c1 ~name:"driver" (fun () ->
         Nautilus.merge_lower_half nk1 ~from:ros_pt;
         Nautilus.merge_lower_half nk2 ~from:ros_pt;
         Nautilus.access nk1 0x1000 ~write:false;
         Nautilus.access nk2 0x1000 ~write:false;
         check_int "nk1 fresh after merge" 0 (Nautilus.stats_remerges nk1);
         check_int "nk2 fresh after merge" 0 (Nautilus.stats_remerges nk2);
         (* The ROS installs a mapping under a fresh top-level slot,
            bumping the lower-half generation both copies snapshotted. *)
         let far = Mv_hw.Addr.of_indices ~pml4:3 ~pdpt:0 ~pd:0 ~pt:0 ~offset:0 in
         Mv_hw.Page_table.map ros_pt far ~frame:9 ~flags;
         Nautilus.access nk1 far ~write:true;
         check_int "nk1 re-merged" 1 (Nautilus.stats_remerges nk1);
         check_int "nk1's re-merge must not refresh nk2" 0
           (Nautilus.stats_remerges nk2);
         Nautilus.access nk2 far ~write:true;
         check_int "nk2 re-merged independently" 1 (Nautilus.stats_remerges nk2);
         check_int "nk1 unaffected by nk2's re-merge" 1
           (Nautilus.stats_remerges nk1)));
  Sim.run machine.Machine.sim;
  check_bool "no forwarding needed: both were generation-stale re-merges" true
    (Nautilus.stats_faults_forwarded nk1 = 0
    && Nautilus.stats_faults_forwarded nk2 = 0)

let test_nk_higher_half_fault_fatal () =
  let machine, nk = boot_nk () in
  let hrt_core = List.hd (Mv_hw.Topology.cores_of machine.Machine.topo 1) in
  let failed = ref false in
  (* The 1G identity leaves cover all physical memory, so the first
     unmapped higher-half address is just past it. *)
  let phys = machine.Machine.phys in
  let span_pages =
    Mv_hw.Phys_mem.total phys Mv_hw.Phys_mem.Ros_region
    + Mv_hw.Phys_mem.total phys Mv_hw.Phys_mem.Hrt_region
  in
  let span_bytes =
    (span_pages + Mv_hw.Addr.pages_per_1g - 1)
    / Mv_hw.Addr.pages_per_1g * Mv_hw.Addr.page_size_1g
  in
  ignore
    (Exec.spawn machine.Machine.exec ~cpu:hrt_core ~name:"hrt" (fun () ->
         (* In-span higher-half accesses hit the identity map... *)
         Nautilus.access nk (Mv_hw.Addr.higher_half_base + 0x5000) ~write:false;
         (* ...but an address beyond it is an AeroKernel bug, not a
            forwardable event. *)
         match
           Nautilus.access nk
             (Mv_hw.Addr.higher_half_base + span_bytes + 0x5000)
             ~write:false
         with
         | () -> ()
         | exception Failure _ -> failed := true));
  Sim.run machine.Machine.sim;
  check_bool "higher-half fault is fatal" true !failed

let test_nk_syscall_stub_costs () =
  let machine, nk = boot_nk () in
  Nautilus.set_services nk
    {
      Nautilus.svc_forward_fault = (fun _ ~write:_ -> Nautilus.Fault_fixed);
      svc_forward_syscall = (fun _ run -> run ());
      svc_request_remerge = (fun () -> Mv_hw.Page_table.create ());
    };
  let hrt_core = List.hd (Mv_hw.Topology.cores_of machine.Machine.topo 1) in
  let cost = ref 0 in
  ignore
    (Exec.spawn machine.Machine.exec ~cpu:hrt_core ~name:"hrt" (fun () ->
         let t0 = Exec.local_now machine.Machine.exec in
         Nautilus.syscall nk ~name:"getpid" (fun () -> ());
         cost := Exec.local_now machine.Machine.exec - t0));
  Sim.run machine.Machine.sim;
  (* trap + red-zone pull + SYSRET emulation *)
  let expected =
    costs.Mv_hw.Costs.syscall_trap + costs.Mv_hw.Costs.redzone_stack_pull
    + costs.Mv_hw.Costs.sysret_emulation
  in
  check_int "stub cost" expected !cost;
  check_int "counted" 1 (Nautilus.stats_syscalls_forwarded nk)

(* --- HVM --- *)

let mk_hvm () =
  let machine = Machine.create () in
  let ros = Mv_ros.Kernel.create machine in
  let hvm = Hvm.create machine ~ros in
  (machine, ros, hvm)

let test_hvm_marks_ros_virtualized () =
  let _machine, ros, _hvm = mk_hvm () in
  check_bool "ros runs as a guest" true ros.Mv_ros.Kernel.virtualized

let test_hvm_install_boot () =
  let machine, _ros, hvm = mk_hvm () in
  let nk = Nautilus.create machine in
  ignore
    (Exec.spawn machine.Machine.exec ~cpu:0 ~name:"app" (fun () ->
         Hvm.install_hrt_image hvm ~image_kb:640 nk;
         Hvm.boot_hrt hvm));
  Sim.run machine.Machine.sim;
  check_bool "booted" true (Nautilus.booted nk);
  check_bool "hypercalls counted" true (Hvm.hypercalls hvm >= 2)

let test_hvm_boot_without_image_fails () =
  let machine, _ros, hvm = mk_hvm () in
  let failed = ref false in
  ignore
    (Exec.spawn machine.Machine.exec ~cpu:0 ~name:"app" (fun () ->
         match Hvm.boot_hrt hvm with () -> () | exception Failure _ -> failed := true));
  Sim.run machine.Machine.sim;
  check_bool "refused" true !failed

let test_superposition_thread_state () =
  let machine, ros, hvm = mk_hvm () in
  let nk = Nautilus.create machine in
  let p = ref None in
  ignore
    (Mv_ros.Kernel.spawn_process ros ~name:"app" (fun proc ->
         p := Some proc;
         Hvm.install_hrt_image hvm ~image_kb:640 nk;
         Hvm.boot_hrt hvm;
         let hrt_core = List.hd (Mv_hw.Topology.cores_of machine.Machine.topo 1) in
         check_bool "not superimposed yet" false
           (Superposition.verify_superposition nk proc ~core:hrt_core);
         let th = Hvm.hrt_create_thread hvm proc ~name:"t" (fun () -> ()) in
         check_bool "GDT and %fs mirrored" true
           (Superposition.verify_superposition nk proc ~core:hrt_core);
         Exec.join machine.Machine.exec th));
  Sim.run machine.Machine.sim;
  check_bool "ran" true (!p <> None)

let test_hvm_signal_to_ros_latency () =
  let machine, _ros, hvm = mk_hvm () in
  let fired_at = ref 0 in
  Hvm.register_ros_signal hvm ~handler:(fun _ -> fired_at := Sim.now machine.Machine.sim);
  ignore
    (Exec.spawn machine.Machine.exec ~cpu:7 ~name:"hrt" (fun () ->
         Exec.charge machine.Machine.exec 100;
         Hvm.raise_signal_to_ros hvm ~payload:1));
  Sim.run machine.Machine.sim;
  (* ~11 us injection latency (paper, Section 2). *)
  check_bool "async signal latency ~11us" true
    (Mv_util.Cycles.to_us !fired_at >= 10.0 && Mv_util.Cycles.to_us !fired_at < 14.0)

let suite =
  [
    ("event channel: async RTT (Fig 2)", `Quick, test_channel_async_latency);
    ("event channel: sync socket distance (Fig 2)", `Quick, test_channel_sync_socket_distance);
    ("event channel: an odd RTT is charged whole", `Quick, test_channel_odd_rtt);
    ("event channel: queued callers", `Quick, test_channel_queueing);
    ("event channel: post", `Quick, test_channel_post_fire_and_forget);
    ("nautilus: boot in milliseconds", `Quick, test_nk_boot_takes_milliseconds);
    ("nautilus: ring0/WP/IST setup", `Quick, test_nk_cpu_setup);
    ("nautilus: cheap thread creation", `Quick, test_nk_thread_creation_cheap);
    ("nautilus: nested threads", `Quick, test_nk_nested_threads);
    ("nautilus: fault forwarding + PML4 re-merge", `Quick, test_nk_fault_forwarding_and_remerge);
    ("nautilus: per-partition merge generations", `Quick, test_two_hrt_merge_generations);
    ("nautilus: higher-half fault fatal", `Quick, test_nk_higher_half_fault_fatal);
    ("nautilus: syscall stub cost", `Quick, test_nk_syscall_stub_costs);
    ("hvm: ROS marked virtualized", `Quick, test_hvm_marks_ros_virtualized);
    ("hvm: install + boot", `Quick, test_hvm_install_boot);
    ("hvm: boot without image fails", `Quick, test_hvm_boot_without_image_fails);
    ("hvm: GDT/TLS superposition", `Quick, test_superposition_thread_state);
    ("hvm: HRT-to-ROS signal latency", `Quick, test_hvm_signal_to_ros_latency);
  ]
