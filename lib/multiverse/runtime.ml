module Machine = Mv_engine.Machine
module Exec = Mv_engine.Exec
module Nautilus = Mv_aerokernel.Nautilus
module Hvm = Mv_hvm.Hvm
module Event_channel = Mv_hvm.Event_channel
module Fabric = Mv_hvm.Fabric
module Fault_plan = Mv_faults.Fault_plan
open Mv_ros
open Mv_hw

exception Disallowed of string

type porting = { port_mmap : bool; port_signals : bool; port_faults : bool }

let no_porting = { port_mmap = false; port_signals = false; port_faults = false }
let full_porting = { port_mmap = true; port_signals = true; port_faults = true }

type group = {
  g_id : int;
  g_name : string;
  g_ep : Fabric.endpoint;
  mutable g_partner : Exec.thread option;
  mutable g_hrt : Exec.thread option;
  mutable g_done : bool;  (* flipped by the HRT-exit signal handler *)
  mutable g_wake : (unit -> unit) option;  (* the parked partner *)
  mutable g_stack : Addr.t option;  (* ROS-side stack, freed by the partner *)
}

type t = {
  hvm : Hvm.t;
  ros : Kernel.t;
  proc : Process.t;
  part : Partition.id;  (* the HRT partition this runtime is bound to *)
  the_nk : Nautilus.t;
  the_symbols : Symbols.t;
  the_config : Override_config.t;
  the_fabric : Fabric.t;
  porting : porting;
  channels : (int, Fabric.endpoint) Hashtbl.t;  (* HRT tid -> endpoint *)
  groups : (int, group) Hashtbl.t;
  mutable next_group : int;
  nk_signals : Signal.t;  (* HRT-local signal table when port_signals *)
  mutable n_local_faults : int;
  mutable n_overridden : int;
  mutable the_env : Mv_guest.Env.t option;
  mutable shutting_down : bool;
  mutable hrt_rr : int;  (* round-robin cursor over the HRT cores *)
  placement : Fabric.placement;
}

let hrt_stack_size = 64 * 1024

let machine t = Hvm.machine t.hvm

let in_hrt_context t =
  let core = Exec.cpu_of (Exec.self (machine t).Machine.exec) in
  Topology.role (machine t).Machine.topo core = Topology.Hrt_core

let ep_of_self t =
  let self = Exec.self (machine t).Machine.exec in
  match Hashtbl.find_opt t.channels (Exec.tid self) with
  | Some ep -> ep
  | None ->
      failwith
        (Printf.sprintf "Multiverse: HRT thread has no fabric endpoint (%s)"
           (Exec.name self))

(* Run [f] as the payload of a request that [run] ships elsewhere, and
   return its result. *)
let returning (type a) name (f : unit -> a) run : a =
  let result = ref None in
  run (fun () -> result := Some (f ()));
  match !result with
  | Some v -> v
  | None -> failwith ("Multiverse: no result for " ^ name)

(* Forward a typed operation through the Nautilus syscall stub; its wired
   service ships the payload over the current execution group's fabric
   endpoint, where it runs in ROS context (a pool poller, or batched into
   another call's drain).  All resilience — spurious-errno retry, channel
   timeout/backoff, Sync->Async degradation, ROS-native rerouting — lives
   in the fabric now. *)
let forward t name f = returning name f (fun run -> Nautilus.syscall t.the_nk ~name run)

(* --- Nautilus service wiring --- *)

let deliver_segv_locally t info =
  (* In-kernel delivery: no user frame, just a function call. *)
  match Signal.action t.nk_signals info.Signal.si_signo with
  | Signal.Handler h ->
      Machine.charge (machine t) 350;
      h info;
      Machine.charge (machine t) 120
  | Signal.Ignore -> ()
  | Signal.Default ->
      failwith
        (Printf.sprintf "Multiverse: unhandled local %s at %x"
           (Signal.name info.Signal.si_signo)
           info.Signal.si_addr)

let service_fault_local t addr ~write =
  t.n_local_faults <- t.n_local_faults + 1;
  let costs = (machine t).Machine.costs in
  (* Kernel-mode fault service: the trap already happened on the HRT core;
     page-table edits are direct ("hundreds of times faster ... instead of
     behind a system call interface", paper Section 5). *)
  Machine.charge (machine t) (costs.Costs.page_fault_trap / 4);
  match Mm.handle_fault t.proc.Process.mm addr ~write with
  | Mm.Fixed_minor ->
      t.proc.Process.rusage.Rusage.minflt <- t.proc.Process.rusage.Rusage.minflt + 1;
      Nautilus.Fault_fixed
  | Mm.Segv info ->
      let local = t.porting.port_signals && Signal.registered t.nk_signals info.Signal.si_signo in
      if local && not (Signal.is_blocked t.nk_signals Signal.Sigsegv) then begin
        deliver_segv_locally t info;
        Nautilus.Fault_fixed
      end
      else begin
        (* Signals not ported: replicate to the ROS for delivery.  A local
           handler that the HRT-side mask blocks is skipped, as the kernel
           skips a blocked one: the ROS takes the default action. *)
        Fabric.call t.the_fabric (ep_of_self t)
          {
            Event_channel.req_kind = "#signal";
            req_run =
              (fun () ->
                if local then Kernel.default_action t.ros t.proc info
                else Kernel.deliver_signal t.ros t.proc info);
          };
        Nautilus.Fault_fixed
      end

let service_fault_forwarded t addr ~write =
  (* Repeat faults on a page whose mapping already exists in the ROS master
     table are promoted to an HRT-local re-merge: the PML4 copy is merely
     stale and no ROS round trip is needed (paper, Section 4.4). *)
  Fabric.call t.the_fabric (ep_of_self t)
    ~key:(Printf.sprintf "%x" (Addr.page_of addr))
    ~local_try:(fun () ->
      if Nautilus.page_resolves t.the_nk addr ~write then begin
        Nautilus.remerge t.the_nk;
        true
      end
      else false)
    {
      Event_channel.req_kind = "#pf";
      req_run =
        (fun () ->
          (* The server replicates the access; the same exception occurs on
             the ROS core and is handled as it would be natively, including
             SIGSEGV delivery to the registered handler. *)
          match Kernel.service_fault t.ros t.proc addr ~write with
          | Mm.Fixed_minor -> ()
          | Mm.Segv info -> Kernel.deliver_signal t.ros t.proc info);
    };
  Nautilus.Fault_fixed

let wire_services t =
  Nautilus.set_services t.the_nk
    {
      Nautilus.svc_forward_fault =
        (fun addr ~write ->
          if t.porting.port_faults then service_fault_local t addr ~write
          else service_fault_forwarded t addr ~write);
      svc_forward_syscall =
        (fun name run ->
          Fabric.call t.the_fabric (ep_of_self t) ~errno_site:true
            { Event_channel.req_kind = name; req_run = run });
      svc_request_remerge = (fun () -> Mm.page_table t.proc.Process.mm);
    }

(* --- execution groups (split execution) --- *)

(* HRT thread exited (or the runtime is winding down): unbind the HRT tid
   and free the ROS-side stack.  Runs in the partner thread after its wait
   is released. *)
let partner_cleanup t g =
  let mach = machine t in
  (match g.g_hrt with
  | Some hrt_th -> Hashtbl.remove t.channels (Exec.tid hrt_th)
  | None -> ());
  match g.g_stack with
  | Some stack ->
      g.g_stack <- None;
      Kernel.in_sys t.ros (fun () -> Machine.charge mach mach.Machine.costs.Costs.syscall_trap);
      ignore (Syscalls.munmap t.ros t.proc ~addr:stack ~len:hrt_stack_size)
  | None -> ()

(* Mark the group done and release its parked partner.  Runs from the
   HRT-exit signal handler (delivered through the fabric's injection
   endpoint) or from [shutdown]. *)
let finish_group g =
  if not g.g_done then begin
    g.g_done <- true;
    match g.g_wake with
    | Some wake ->
        g.g_wake <- None;
        wake ()
    | None -> ()
  end

let create_group t ~name fn =
  let gid = t.next_group in
  t.next_group <- t.next_group + 1;
  let mach = machine t in
  (* Spread execution groups across this runtime's HRT partition. *)
  let hrt_cores = Topology.cores_of mach.Machine.topo t.part in
  let hrt_core = List.nth hrt_cores (t.hrt_rr mod List.length hrt_cores) in
  t.hrt_rr <- t.hrt_rr + 1;
  let ros_core =
    match t.placement with
    | Fabric.Spread -> List.hd (Topology.ros_cores mach.Machine.topo)
    | Fabric.Affine -> Topology.nearest_ros_core mach.Machine.topo ~rotate:(gid - 1) hrt_core
  in
  let ep = Fabric.endpoint t.the_fabric ~name ~ros_core ~hrt_core in
  let g =
    {
      g_id = gid;
      g_name = name;
      g_ep = ep;
      g_partner = None;
      g_hrt = None;
      g_done = false;
      g_wake = None;
      g_stack = None;
    }
  in
  Hashtbl.replace t.groups gid g;
  let hrt_body () =
    (* First thing on the HRT side: bind this thread to its group endpoint
       (nested threads inherit it). *)
    Hashtbl.replace t.channels (Exec.tid (Exec.self mach.Machine.exec)) ep;
    (try fn (Option.get t.the_env)
     with Kernel.Process_killed _ -> ());
    (* Signal exit: the HVM injects an "interrupt to user" whose handler
       flips the partner's bit (paper, Section 4.2). *)
    Hvm.raise_signal_to_ros t.hvm ~payload:gid
  in
  let partner_body () =
    let costs = mach.Machine.costs in
    (* The partner allocates the ROS-side stack for the HRT thread... *)
    Kernel.in_sys t.ros (fun () -> Machine.charge mach costs.Costs.syscall_trap);
    let stack =
      match
        Syscalls.mmap t.ros t.proc ~len:hrt_stack_size ~prot:Mm.prot_rw ~kind:"hrt-stack"
      with
      | Ok a -> a
      | Error e -> failwith ("partner: stack mmap failed: " ^ Syscalls.errno_name e)
    in
    g.g_stack <- Some stack;
    (* ... then asks the HVM to create the HRT thread (superimposing
       GDT/TLS state on the target core).  The group's events are served
       by the fabric's shared poller pool, so the partner itself just
       waits for the HRT-exit signal: [pthread_join] semantics without a
       dedicated busy-loop server per group. *)
    let hrt_th =
      Hvm.hrt_create_thread ~part:t.part t.hvm t.proc ~name:(name ^ "/hrt") ~core:hrt_core
        hrt_body
    in
    g.g_hrt <- Some hrt_th;
    Hashtbl.replace t.channels (Exec.tid hrt_th) ep;
    Kernel.register_foreign_thread t.ros t.proc hrt_th;
    if not g.g_done then
      Exec.block mach.Machine.exec ~reason:"partner:wait" (fun ~now:_ ~wake ->
          g.g_wake <- Some (fun () -> wake ()));
    partner_cleanup t g
  in
  let partner =
    Kernel.spawn_thread t.ros t.proc ~name:(name ^ "/partner") ~cpu:ros_core partner_body
  in
  g.g_partner <- Some partner;
  partner

let hrt_invoke t ~name fn =
  if t.shutting_down then failwith "Multiverse: runtime is shutting down";
  if in_hrt_context t then
    (* pthread_create from HRT context: the group creation itself is a
       request to the ROS side, served through the fabric. *)
    forward t "hrt-invoke" (fun () -> create_group t ~name fn)
  else create_group t ~name fn

(* Partners are never fault-injection targets (the kill site drives the
   fabric's poller pool instead), so joining a group is a plain join on
   its partner thread. *)
let join t partner = Exec.join (machine t).Machine.exec partner

(* Nested HRT threads (paper, Figure 7): created from inside the HRT,
   cheap AeroKernel threads with no partner; their events go through the
   creator's execution-group endpoint. *)
let create_nested t ~name body =
  if not (in_hrt_context t) then
    failwith "Multiverse.create_nested: only callable from HRT context";
  let ep = ep_of_self t in
  let mach = machine t in
  let core = Exec.cpu_of (Exec.self mach.Machine.exec) in
  let th =
    Nautilus.create_thread_local t.the_nk ~name ~core (fun () ->
        (* Bind to the parent's endpoint before anything can fault. *)
        Hashtbl.replace t.channels (Exec.tid (Exec.self mach.Machine.exec)) ep;
        Fun.protect
          ~finally:(fun () ->
            Hashtbl.remove t.channels (Exec.tid (Exec.self mach.Machine.exec)))
          body)
  in
  Hashtbl.replace t.channels (Exec.tid th) ep;
  Kernel.register_foreign_thread t.ros t.proc th;
  th

let join_nested t th = Nautilus.join_thread t.the_nk th

(* The process's exit hook.  The HRT-local handlers go with the
   process's own: its threads are killed next, so nothing can deliver to
   them, and a handler would keep the guest's runtime alive. *)
let shutdown t =
  t.shutting_down <- true;
  Hashtbl.iter (fun _ g -> finish_group g) t.groups;
  Fabric.shutdown t.the_fabric;
  Signal.clear_actions t.nk_signals

(* --- the HRT-side guest ABI --- *)

let override_call t name =
  t.n_overridden <- t.n_overridden + 1;
  let costs = (machine t).Machine.costs in
  Machine.charge (machine t) costs.Costs.wrapper_dispatch;
  match Override_config.find t.the_config ~legacy:name with
  | Some entry ->
      ignore (Symbols.lookup t.the_symbols entry.Override_config.ov_symbol);
      Machine.charge (machine t) entry.Override_config.ov_cost
  | None -> failwith ("Multiverse: no override entry for " ^ name)

(* The hybridized program's ABI: the native calls over a crossing that
   dispatches on the current core's role.  Split execution means the
   {e same} code can run on either side: HRT threads forward system calls
   over their group's fabric endpoint, while guest code momentarily
   executing in ROS context (e.g. a SIGSEGV handler delivered during fault
   replication) takes the native path.  On top of that, the calls the
   AeroKernel replaces are overridden. *)
let make_env t : Mv_guest.Env.t =
  let ros = t.ros and proc = t.proc in
  let nat = Mv_guest.Env.native_crossing ros in
  let hrt_side () = in_hrt_context t in
  let crossing =
    {
      Mv_guest.Env.syscall =
        (fun name body -> if hrt_side () then forward t name body else nat.syscall name body);
      (* vdso calls execute locally in the merged address space — the HRT
         core's sparse TLB makes them slightly faster than under
         virtualization (Figure 9).  They still route through the fabric
         so the promotion table accounts them as local fast-path hits. *)
      vdso =
        (fun name body ->
          if hrt_side () then
            returning name body (fun req_run ->
                Fabric.call t.the_fabric (ep_of_self t)
                  { Event_channel.req_kind = name; req_run })
          else nat.vdso name body);
      access =
        (fun addr ~write ->
          if hrt_side () then Nautilus.access t.the_nk addr ~write
          else nat.access addr ~write);
    }
  in
  let base = Mv_guest.Env.make ~mode_name:"multiverse" crossing ros proc in
  (* A ported call runs in HRT context behind its override wrapper, as the
     AeroKernel variant [nk]; in ROS context it is the plain call. *)
  let port ~legacy ~nk ported plain =
    if hrt_side () then begin
      override_call t legacy;
      Kernel.count_syscall ros proc nk;
      ported ()
    end
    else plain ()
  in
  let env =
    if not t.porting.port_mmap then base
    else
      {
        base with
        mmap =
          (fun ~len ~prot ~kind ->
            port ~legacy:"mmap" ~nk:"nk_mmap"
              (fun () -> Mm.mmap proc.Process.mm ~len ~prot ~kind)
              (fun () -> base.mmap ~len ~prot ~kind));
        munmap =
          (fun ~addr ~len ->
            port ~legacy:"munmap" ~nk:"nk_munmap"
              (fun () -> ignore (Mm.munmap proc.Process.mm addr ~len))
              (fun () -> base.munmap ~addr ~len));
        mprotect =
          (fun ~addr ~len ~prot ->
            port ~legacy:"mprotect" ~nk:"nk_mprotect"
              (fun () -> ignore (Mm.mprotect proc.Process.mm addr ~len prot))
              (fun () -> base.mprotect ~addr ~len ~prot));
      }
  in
  let env =
    if not t.porting.port_signals then env
    else
      {
        env with
        sigaction =
          (fun signo handler ->
            port ~legacy:"rt_sigaction" ~nk:"nk_sigaction"
              (fun () -> Signal.set_action t.nk_signals signo handler)
              (fun () -> base.sigaction signo handler));
        sigprocmask =
          (fun ~block signo ->
            port ~legacy:"rt_sigprocmask" ~nk:"nk_sigprocmask"
              (fun () ->
                if block then Signal.block t.nk_signals signo
                else Signal.unblock t.nk_signals signo)
              (fun () -> base.sigprocmask ~block signo));
      }
  in
  {
    env with
    (* Default override: pthread_create -> AeroKernel thread creation via
       a fresh execution group (paper, Figure 5). *)
    thread_create =
      (fun ~name body ->
        override_call t "pthread_create";
        hrt_invoke t ~name (fun _env -> body ()));
    thread_join =
      (fun partner ->
        override_call t "pthread_join";
        join t partner);
    execve =
      (fun ~path -> if hrt_side () then raise (Disallowed "execve") else base.execve ~path);
  }

(* --- initialization (paper, Section 3.5) --- *)

let register_nk_variants nk config =
  let ensure name cost =
    if Nautilus.func_address nk name = None then
      Nautilus.register_func nk ~name ~cost (fun () -> ())
  in
  List.iter
    (fun e -> ensure e.Override_config.ov_symbol e.Override_config.ov_cost)
    config.Override_config.entries;
  ensure "nk_mmap" 320;
  ensure "nk_munmap" 360;
  ensure "nk_mprotect" 260;
  ensure "nk_sigaction" 180

let init ~hvm ~proc ~fat ~nk ?(channel_kind = Event_channel.Async)
    ?(use_symbol_cache = false) ?(porting = no_porting) ?(faults = Fault_plan.none)
    ?(placement = Fabric.Spread) () =
  if porting.port_signals && not porting.port_faults then
    invalid_arg "Multiverse: porting signals requires porting fault handling";
  let ros = Hvm.ros hvm in
  let mach = Hvm.machine hvm in
  let costs = mach.Machine.costs in
  (* Parse the AeroKernel image embedded in our own fat binary. *)
  let image =
    match Fat_binary.section fat Fat_binary.sec_hrt_image with
    | Some s -> s
    | None -> failwith "Multiverse: executable has no embedded AeroKernel image"
  in
  let image_kb = max 1 (String.length image / 1024) in
  Machine.charge mach (image_kb * costs.Costs.image_install_per_kb / 4);
  (* Overrides: the enforced pthread defaults plus the developer's file. *)
  let config =
    match Fat_binary.section fat Fat_binary.sec_overrides with
    | Some text -> (
        match Override_config.parse text with
        | Ok c ->
            {
              Override_config.entries =
                Override_config.default.Override_config.entries @ c.Override_config.entries;
            }
        | Error e -> failwith ("Multiverse: bad override config: " ^ e))
    | None -> Override_config.default
  in
  (* Porting flags imply AeroKernel overrides for the ported interfaces. *)
  let imply cond entries config =
    if cond then
      List.fold_left
        (fun cfg (legacy, symbol, cost) ->
          if Override_config.mem cfg ~legacy then cfg
          else
            Override_config.add cfg
              { Override_config.ov_legacy = legacy; ov_symbol = symbol; ov_cost = cost; ov_args = 3 })
        config entries
    else config
  in
  let config =
    config
    |> imply porting.port_mmap
         [ ("mmap", "nk_mmap", 320); ("munmap", "nk_munmap", 360); ("mprotect", "nk_mprotect", 260) ]
    |> imply porting.port_signals
         [ ("rt_sigaction", "nk_sigaction", 180); ("rt_sigprocmask", "nk_sigaction", 120) ]
  in
  register_nk_variants nk config;
  Fault_plan.bind faults mach;
  Hvm.set_faults hvm faults;
  (* The forwarding fabric: one transport layer for every ROS<->HRT
     interaction. *)
  let fabric = Fabric.create ~faults mach ~kind:channel_kind in
  let t =
    {
      hvm;
      ros;
      proc;
      part = Nautilus.partition nk;
      the_nk = nk;
      the_symbols = Symbols.create nk ~use_cache:use_symbol_cache;
      the_config = config;
      the_fabric = fabric;
      porting;
      channels = Hashtbl.create 16;
      groups = Hashtbl.create 8;
      next_group = 1;
      nk_signals = Signal.create ();
      n_local_faults = 0;
      n_overridden = 0;
      the_env = None;
      shutting_down = false;
      hrt_rr = 0;
      placement;
    }
  in
  (* Init tasks (Section 3.5): signal handlers, exit hook, linkage,
     image installation, boot, merger, fabric bring-up. *)
  Kernel.count_syscall ros proc "rt_sigaction";
  Hvm.register_ros_signal hvm ~handler:(fun gid ->
      match Hashtbl.find_opt t.groups gid with
      | Some g -> finish_group g
      | None -> ());
  Process.add_exit_hook proc (fun _ -> shutdown t);
  Hvm.install_hrt_image hvm ~image_kb nk;
  Hvm.boot_hrt ~part:t.part hvm;
  Hvm.merge_address_space ~part:t.part hvm proc;
  wire_services t;
  (* The shared ROS-side poller pool replaces the per-group partner server
     loops; pollers account like ordinary process threads. *)
  let ros_cores = Topology.ros_cores mach.Machine.topo in
  Fabric.start_pool fabric
    ~spawn:(fun ~name ~core body -> Kernel.spawn_thread ros proc ~name ~cpu:core body)
    ~cores:ros_cores ~placement ();
  (* HRT-to-ROS signal injection rides a dedicated fabric endpoint. *)
  let inject_ep =
    Fabric.endpoint fabric ~name:"signals" ~ros_core:(List.hd ros_cores)
      ~hrt_core:(List.hd (Topology.cores_of mach.Machine.topo t.part))
  in
  Hvm.set_signal_transport hvm
    (Some
       (fun fn ->
         Event_channel.post (Fabric.channel inject_ep)
           { Event_channel.req_kind = "#signal-inject"; req_run = fn }));
  (* Elastic partitioning: when a core this fabric routes through is lent
     away (or reclaimed), re-home the endpoint bindings that referenced
     it.  Replacement cores are the first remaining ROS core for the
     server side and the first remaining core of our partition for the
     HRT side. *)
  Hvm.on_repartition hvm (fun ~core ~src:_ ~dst:_ ->
      let topo = mach.Machine.topo in
      let ros_to = match Topology.ros_cores topo with c :: _ -> Some c | [] -> None in
      let hrt_to =
        match Topology.cores_of topo t.part with c :: _ -> Some c | [] -> None
      in
      ignore (Fabric.rehome_core fabric ~core ?ros_to ?hrt_to ()));
  (* Local fast paths: vdso-like calls immediately, repeat page faults
     after two forwarded occurrences per page. *)
  Fabric.install_local fabric ~kind:"gettimeofday" ();
  Fabric.install_local fabric ~kind:"getpid" ();
  Fabric.install_local fabric ~kind:"#pf" ~promote_after:2 ();
  t.the_env <- Some (make_env t);
  t

let symbols t = t.the_symbols
let config t = t.the_config
let nk t = t.the_nk
let partition t = t.part
let fabric t = t.the_fabric
let groups_created t = t.next_group - 1
let faults_serviced_locally t = t.n_local_faults
let overridden_calls t = t.n_overridden
