type t = {
  sim : Sim.t;
  exec : Exec.t;
  topo : Mv_hw.Topology.t;
  costs : Mv_hw.Costs.t;
  phys : Mv_hw.Phys_mem.t;
  cpus : Mv_hw.Cpu.t array;
  trace : Trace.t;
  obs : Mv_obs.Tracer.t;
  metrics : Mv_obs.Metrics.t;
  zero_frame : int;
  mutable huge_pages : bool;
      (* Large-page support: 1G identity maps in the AeroKernel, transparent
         2M promotion of big anonymous VMAs in the ROS, range-batched
         shootdowns.  On by default; the mempath bench A/Bs it. *)
  mutable work_stealing : bool;
      (* Whether deterministic work stealing is on; remembered so core
         lending can recompute the steal domain when the ROS core set
         changes. *)
}

let create ?(costs = Mv_hw.Costs.default) ?(sockets = 2) ?(cores_per_socket = 4)
    ?hrt_parts ?(huge_pages = true) ?(work_stealing = false) () =
  let sim = Sim.create () in
  let topo = Mv_hw.Topology.create ~sockets ~cores_per_socket ?hrt_parts () in
  let ncores = Mv_hw.Topology.ncores topo in
  let exec = Exec.create sim ~ncpus:ncores in
  if work_stealing then
    (* Stealing stays inside the ROS partition: HRT cores are cooperative
       and their pinning is part of the partition contract. *)
    Exec.set_steal_domain exec (Some (Mv_hw.Topology.ros_cores topo));
  let phys =
    Mv_hw.Phys_mem.create ~sockets ~cores_per_socket ~hrt_fraction:0.25 ()
  in
  let cpus = Array.init ncores (fun core_id -> Mv_hw.Cpu.create ~core_id) in
  (* ROS cores run a preemptive scheduler; HRT cores are cooperative and
     switch threads at AeroKernel cost. *)
  Array.iteri
    (fun i _ ->
      match Mv_hw.Topology.role topo i with
      | Mv_hw.Topology.Ros_core ->
          Exec.set_cpu_params exec ~cpu:i ~switch_cost:costs.context_switch_ros
            ~slice:(Some costs.timeslice_ros) ()
      | Mv_hw.Topology.Hrt_core ->
          Exec.set_cpu_params exec ~cpu:i ~switch_cost:costs.context_switch_nk
            ~slice:None ())
    cpus;
  let zero_frame = Mv_hw.Phys_mem.alloc phys Mv_hw.Phys_mem.Ros_region in
  (* The span tracer shares the executor's virtual clock; tracks are
     thread ids (-1 outside thread context, e.g. event callbacks). *)
  let obs =
    Mv_obs.Tracer.create
      ~now:(fun () -> Exec.local_now exec)
      ~track:(fun () -> match Exec.self_opt exec with Some th -> Exec.tid th | None -> -1)
      ~track_name:(fun () ->
        match Exec.self_opt exec with Some th -> Exec.name th | None -> "sim")
      ()
  in
  {
    sim;
    exec;
    topo;
    costs;
    phys;
    cpus;
    trace = Trace.create ();
    obs;
    metrics = Mv_obs.Metrics.create ();
    zero_frame;
    huge_pages;
    work_stealing;
  }

let charge t c = Exec.charge t.exec c
let now t = Exec.local_now t.exec

let apply_core_params t ~core =
  (* Re-derive one core's scheduling parameters from its current role —
     the same assignment [create] makes, re-run after lending moves the
     core across the ROS/HRT boundary. *)
  match Mv_hw.Topology.role t.topo core with
  | Mv_hw.Topology.Ros_core ->
      Exec.set_cpu_params t.exec ~cpu:core ~switch_cost:t.costs.context_switch_ros
        ~slice:(Some t.costs.timeslice_ros) ()
  | Mv_hw.Topology.Hrt_core ->
      Exec.set_cpu_params t.exec ~cpu:core ~switch_cost:t.costs.context_switch_nk
        ~slice:None ()

let refresh_steal_domain t =
  if t.work_stealing then
    Exec.set_steal_domain t.exec (Some (Mv_hw.Topology.ros_cores t.topo))

let mem_access_cost t ~core ~frame =
  let d =
    Mv_hw.Topology.socket_distance t.topo
      (Mv_hw.Topology.socket_of t.topo core)
      (Mv_hw.Phys_mem.zone_of_frame t.phys frame)
  in
  Mv_hw.Costs.remote_access_cost t.costs ~distance:d

let alloc_frame t region =
  match Exec.self_opt t.exec with
  | Some th -> Mv_hw.Phys_mem.alloc_near t.phys ~core:(Exec.cpu_of th) region
  | None -> Mv_hw.Phys_mem.alloc t.phys region

let cpu_of_current t =
  let th = Exec.self t.exec in
  t.cpus.(Exec.cpu_of th)

let emit t payload =
  if Trace.enabled t.trace then
    Trace.emit_event t.trace ~at:(now t) ~track:(Mv_obs.Tracer.track t.obs) payload

let set_tracing t flag =
  Trace.enable t.trace flag;
  Mv_obs.Tracer.set_enabled t.obs flag
