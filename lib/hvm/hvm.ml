module Machine = Mv_engine.Machine
module Exec = Mv_engine.Exec
module Sim = Mv_engine.Sim
module Trace = Mv_engine.Trace
module Nautilus = Mv_aerokernel.Nautilus
open Mv_hw

module Fault_plan = Mv_faults.Fault_plan

(* One slot per HRT partition: the installed AeroKernel instance and its
   image.  The slot exists from HVM creation (the partition geometry is
   fixed by the topology), the instance arrives with [install_hrt_image]. *)
type part_slot = {
  ps_id : Partition.id;
  mutable ps_nk : Nautilus.t option;
  mutable ps_image_kb : int;
}

type t = {
  machine : Machine.t;
  ros : Mv_ros.Kernel.t;
  slots : part_slot array;  (* HRT partitions, indexed by pid - 1 *)
  mutable n_hypercalls : int;
  mutable n_exits : int;
  mutable n_lends : int;
  mutable n_reclaims : int;
  mutable ros_signal_handler : (int -> unit) option;
  mutable signal_transport : ((unit -> unit) -> unit) option;
  mutable repartition_hooks :
    (core:int -> src:Partition.id -> dst:Partition.id -> unit) list;
      (* fired after a core moves, newest first: fabric routing and other
         per-partition subsystems re-home their state here *)
  mutable faults : Fault_plan.t;
}

let create machine ~ros =
  ros.Mv_ros.Kernel.virtualized <- true;
  let slots =
    Topology.hrt_partitions machine.Machine.topo
    |> List.map (fun p -> { ps_id = Partition.id p; ps_nk = None; ps_image_kb = 0 })
    |> Array.of_list
  in
  {
    machine;
    ros;
    slots;
    n_hypercalls = 0;
    n_exits = 0;
    n_lends = 0;
    n_reclaims = 0;
    ros_signal_handler = None;
    signal_transport = None;
    repartition_hooks = [];
    faults = Fault_plan.none;
  }

let set_faults t plan = t.faults <- plan

let machine t = t.machine
let ros t = t.ros

let slot t part =
  let found = ref None in
  Array.iter (fun s -> if s.ps_id = part then found := Some s) t.slots;
  match !found with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Hvm: no HRT partition %d" part)

let partitions t = Array.to_list t.slots |> List.map (fun s -> s.ps_id)
let find_hrt t part = (slot t part).ps_nk

let hypercall t ~name:_ =
  t.n_hypercalls <- t.n_hypercalls + 1;
  t.n_exits <- t.n_exits + 1;
  let costs = t.machine.Machine.costs in
  Machine.charge t.machine (costs.Costs.hypercall + costs.Costs.vm_exit)

let require_hrt ?(part = 1) t =
  match find_hrt t part with
  | Some nk -> nk
  | None -> failwith (Printf.sprintf "Hvm: no HRT image installed in partition %d" part)

let install_hrt_image t ~image_kb nk =
  Mv_obs.Tracer.with_span t.machine.Machine.obs ~name:"hrt-install" ~cat:"hvm"
  @@ fun () ->
  hypercall t ~name:"hrt_install";
  Machine.charge t.machine (image_kb * t.machine.Machine.costs.Costs.image_install_per_kb);
  let s = slot t (Nautilus.partition nk) in
  s.ps_image_kb <- image_kb;
  s.ps_nk <- Some nk

let boot_hrt ?(part = 1) t =
  Mv_obs.Tracer.with_span t.machine.Machine.obs ~name:"hrt-boot" ~cat:"hvm"
  @@ fun () ->
  hypercall t ~name:"hrt_boot";
  let nk = require_hrt ~part t in
  if Fault_plan.fire t.faults Fault_plan.Boot_stall "hrt_boot" then begin
    (* The boot handshake stalls: the ROS-side init waits out a full boot
       budget, then reissues the boot hypercall. *)
    Machine.charge t.machine t.machine.Machine.costs.Costs.hrt_boot;
    hypercall t ~name:"hrt_boot"
  end;
  Nautilus.boot nk

let merge_address_space ?(part = 1) t p =
  hypercall t ~name:"hrt_merge";
  let nk = require_hrt ~part t in
  (* The shared page carries the caller's CR3; the HRT does the copy. *)
  Superposition.merge_address_space nk p

let hrt_create_thread ?(part = 1) t p ~name ?core body =
  hypercall t ~name:"hrt_create_thread";
  let nk = require_hrt ~part t in
  let core =
    match core with
    | Some c -> c
    | None -> (
        match Topology.cores_of t.machine.Machine.topo part with
        | c :: _ -> c
        | [] -> invalid_arg (Printf.sprintf "Hvm: partition %d has no cores" part))
  in
  Superposition.superimpose_thread_state nk p ~core;
  Nautilus.request_create_thread nk ~name ~core body

(* --- dynamic core lending ------------------------------------------ *)

let on_repartition t hook = t.repartition_hooks <- hook :: t.repartition_hooks

(* The lending protocol.  Order matters:

   1. Drain — the core's run queue and every thread homed on it move to
      a sibling core of the {e source} partition ([Exec.rehome]), which
      also fences the core's last-thread affinity and re-homes pending
      wake-enqueue events, so no wakeup is lost and no fiber is stranded.
   2. Reassign — the topology moves the core between partition handles
      and flips its role.
   3. Re-derive — scheduling parameters (switch cost, slice) and the
      work-stealing domain follow the new role, and the core's
      architectural state is configured for the destination personality
      (ring 0 / CR0.WP / IST joining an HRT, ROS defaults returning).
   4. Re-home routing — registered repartition hooks (the forwarding
      fabric) re-route endpoints bound to the moved core.

   The caller runs in thread context on some {e other} core (the protocol
   is a hypercall); moving the caller's own core is refused, as is
   emptying the source partition. *)
let move_core t ~core ~dst ~counted =
  let topo = t.machine.Machine.topo in
  let src = Topology.partition_of topo core in
  if src = dst then
    invalid_arg (Printf.sprintf "Hvm: core %d already belongs to partition %d" core dst);
  ignore (Topology.partition topo dst);
  let siblings = List.filter (fun c -> c <> core) (Topology.cores_of topo src) in
  let home =
    match siblings with
    | c :: _ -> c
    | [] ->
        invalid_arg
          (Printf.sprintf "Hvm: cannot lend partition %d's last core (%d)" src core)
  in
  hypercall t ~name:"hrt_repartition";
  let moved = Exec.rehome t.machine.Machine.exec ~cpu:core ~dst:home in
  Topology.reassign topo ~core dst;
  Machine.apply_core_params t.machine ~core;
  Machine.refresh_steal_domain t.machine;
  (match find_hrt t dst with
  | Some nk -> Nautilus.adopt_core nk ~core
  | None ->
      if dst = Partition.ros_id then Nautilus.deconfigure_core t.machine core);
  counted t;
  Machine.emit t.machine (Trace.Repartition { core; src; dst; moved });
  List.iter (fun hook -> hook ~core ~src ~dst) (List.rev t.repartition_hooks)

let lend_core t ~core ~dst =
  move_core t ~core ~dst ~counted:(fun t -> t.n_lends <- t.n_lends + 1)

let reclaim_core t ~core =
  let topo = t.machine.Machine.topo in
  let home = Topology.home_of topo core in
  if Topology.partition_of topo core = home then
    invalid_arg (Printf.sprintf "Hvm.reclaim_core: core %d is not lent out" core);
  move_core t ~core ~dst:home ~counted:(fun t -> t.n_reclaims <- t.n_reclaims + 1)

(* --- signals -------------------------------------------------------- *)

let register_ros_signal t ~handler = t.ros_signal_handler <- Some handler
let set_signal_transport t transport = t.signal_transport <- transport

let raise_signal_to_ros t ~payload =
  (* "Interrupt to user": the HVM records the raise and injects the handler
     at the next user-mode entry window; measured latency ~11 us (paper,
     Section 2).  Lower priority than real interrupts and guest signals. *)
  match t.ros_signal_handler with
  | None -> failwith "Hvm.raise_signal_to_ros: no handler registered"
  | Some handler -> (
      match t.signal_transport with
      | Some transport -> transport (fun () -> handler payload)
      | None ->
          let exec = t.machine.Machine.exec in
          let delay = t.machine.Machine.costs.Costs.async_channel_rtt in
          Sim.schedule_at (Exec.sim exec)
            (max (Exec.local_now exec) (Sim.now (Exec.sim exec)) + delay)
            (fun () -> handler payload))

let hypercalls t = t.n_hypercalls
let exits t = t.n_exits
let lends t = t.n_lends
let reclaims t = t.n_reclaims
