open Mv_hw
module Machine = Mv_engine.Machine
module Exec = Mv_engine.Exec
module Tracer = Mv_obs.Tracer

type fault_reply = Fault_fixed | Fault_fatal of string

type services = {
  svc_forward_fault : Addr.t -> write:bool -> fault_reply;
  svc_forward_syscall : string -> (unit -> unit) -> unit;
  svc_request_remerge : unit -> Page_table.t;
}

type create_request = {
  cr_name : string;
  cr_core : int;
  cr_body : unit -> unit;
  cr_reply : Exec.thread -> unit;
}

type nk_func = { fn_addr : Addr.t; fn_cost : int; fn_impl : unit -> unit }

type t = {
  machine : Machine.t;
  part : Partition.id;  (* the HRT partition this instance runs on *)
  boot_core : int;  (* core the boot event loop was pinned to *)
  pt : Page_table.t;
  mutable booted : boolean_state;
  mutable boots : int;
  mutable services : services option;
  mutable merged_from : Page_table.t option;
  mutable merge_gen : int;
      (* Lower-half generation of [merged_from] snapshotted at merge time.
         Divergence means the ROS replaced a top-level slot since: our PML4
         copy still translates through the *old* sub-tree — a silent stale
         translation, not a fault — so [access] re-merges before trusting
         lower-half addresses. *)
  phys_pages : int;  (* span of the higher-half identity map, in 4K pages *)
  recent_fault : (int, int) Hashtbl.t;  (* core -> last forwarded fault page *)
  request_q : create_request Queue.t;
  mutable loop_wake : (unit -> unit) option;  (* event loop parked here *)
  mutable threads : Exec.thread list;
  funcs : (string, nk_func) Hashtbl.t;
  mutable next_func_addr : Addr.t;
  mutable n_faults_forwarded : int;
  mutable n_remerges : int;
  mutable n_syscalls_forwarded : int;
  mutable n_silent_writes : int;
  mutable n_hh_fills : int;  (* 4K demand fills of the higher half (huge off) *)
}

and boolean_state = Not_booted | Booting | Booted

(* Configure the architectural state of a core joining the HRT partition:
   ring 0, IST interrupt stacks (the red-zone fix), and CR0.WP so that
   ring-0 writes respect read-only PTEs (Section 4.4).  Applied to every
   partition core at [create], and by the HVM to a core lent in later. *)
let configure_core machine core =
  let cpu = machine.Machine.cpus.(core) in
  cpu.Cpu.ring <- 0;
  cpu.Cpu.cr0_wp <- true;
  cpu.Cpu.ist_configured <- true

let create ?(part = 1) machine =
  let hrt_cores = Topology.cores_of machine.Machine.topo part in
  if hrt_cores = [] then
    invalid_arg
      (Printf.sprintf "Nautilus.create: partition %d has no cores" part);
  (match Topology.partition machine.Machine.topo part |> Partition.kind with
  | Partition.Hrt -> ()
  | Partition.Ros ->
      invalid_arg
        (Printf.sprintf "Nautilus.create: partition %d is the ROS partition" part));
  let pt = Page_table.create () in
  let phys_pages =
    Phys_mem.total machine.Machine.phys Phys_mem.Ros_region
    + Phys_mem.total machine.Machine.phys Phys_mem.Hrt_region
  in
  (* Identity-map physical memory into the higher half "with the largest
     pages possible" (paper, Section 4.4): with huge pages on, a handful of
     1 GiB leaves cover the machine, so kernel-mode runtimes never demand-
     fault and a few TLB entries give full reach.  With them off we model
     the pre-large-page world: a presence marker at the base, the rest
     filled 4 KiB at a time on first touch. *)
  if machine.Machine.config.huge_pages then begin
    let gigs = (phys_pages + Addr.pages_per_1g - 1) / Addr.pages_per_1g in
    for i = 0 to max 0 (gigs - 1) do
      Page_table.map_size pt
        (Addr.higher_half_base + (i * Addr.page_size_1g))
        ~size:Page_table.S1g
        ~frame:(i * Addr.pages_per_1g)
        ~flags:Page_table.(f_present lor f_writable)
    done
  end
  else
    Page_table.map pt Addr.higher_half_base ~frame:0
      ~flags:Page_table.(f_present lor f_writable);
  List.iter (configure_core machine) hrt_cores;
  {
    machine;
    part;
    boot_core = List.hd hrt_cores;
    pt;
    booted = Not_booted;
    boots = 0;
    services = None;
    merged_from = None;
    merge_gen = 0;
    phys_pages;
    recent_fault = Hashtbl.create 8;
    request_q = Queue.create ();
    loop_wake = None;
    threads = [];
    funcs = Hashtbl.create 32;
    next_func_addr = Addr.higher_half_base + 0x100000;
    n_faults_forwarded = 0;
    n_remerges = 0;
    n_syscalls_forwarded = 0;
    n_silent_writes = 0;
    n_hh_fills = 0;
  }

let machine t = t.machine
let partition t = t.part

(* The partition's current cores — dynamic, because lending may move
   cores in and out after creation. *)
let cores t = Topology.cores_of t.machine.Machine.topo t.part

let deconfigure_core machine core =
  (* Restore the ROS-side architectural defaults when a core leaves the
     HRT partition (the inverse of [configure_core]). *)
  let cpu = machine.Machine.cpus.(core) in
  cpu.Cpu.ring <- 3;
  cpu.Cpu.cr0_wp <- false;
  cpu.Cpu.ist_configured <- false

let adopt_core t ~core = configure_core t.machine core

let set_wp t flag =
  List.iter (fun core -> t.machine.Machine.cpus.(core).Cpu.cr0_wp <- flag) (cores t)
let page_table t = t.pt
let booted t = t.booted = Booted
let set_services t svc = t.services <- Some svc

let services t =
  match t.services with
  | Some s -> s
  | None -> failwith "Nautilus: ROS services not wired (no HVM?)"

let default_core t = match cores t with [] -> t.boot_core | c :: _ -> c

(* --- event loop --- *)

let rec event_loop t () =
  match Queue.take_opt t.request_q with
  | Some req ->
      Machine.charge t.machine t.machine.Machine.costs.Costs.thread_create_nk;
      let th = Exec.spawn t.machine.Machine.exec ~cpu:req.cr_core ~name:req.cr_name req.cr_body in
      t.threads <- th :: t.threads;
      req.cr_reply th;
      event_loop t ()
  | None ->
      Exec.block t.machine.Machine.exec ~reason:"nk-event-loop" (fun ~now:_ ~wake ->
          t.loop_wake <- Some (fun () -> wake ()));
      event_loop t ()

let boot t =
  (* Boot (or reboot) takes milliseconds — on par with fork+exec (paper,
     Section 2) — and ends in the event loop awaiting requests. *)
  Tracer.with_span t.machine.Machine.obs ~name:"nk:boot" ~cat:"hrt" @@ fun () ->
  t.booted <- Booting;
  t.boots <- t.boots + 1;
  Machine.charge t.machine t.machine.Machine.costs.Costs.hrt_boot;
  Hashtbl.reset t.recent_fault;
  if t.boots = 1 then
    ignore
      (Exec.spawn t.machine.Machine.exec ~cpu:(default_core t) ~name:"nk/event-loop"
         (event_loop t));
  t.booted <- Booted

let kick_loop t =
  match t.loop_wake with
  | Some wake ->
      t.loop_wake <- None;
      wake ()
  | None -> ()

let request_create_thread t ~name ?core body =
  if t.booted <> Booted then failwith "Nautilus: not booted";
  let core = match core with Some c -> c | None -> default_core t in
  Exec.block t.machine.Machine.exec ~reason:"nk-create-thread" (fun ~now:_ ~wake ->
      Queue.add { cr_name = name; cr_core = core; cr_body = body; cr_reply = wake }
        t.request_q;
      kick_loop t)

let create_thread_local t ~name ?core body =
  let core = match core with Some c -> c | None -> default_core t in
  Machine.charge t.machine t.machine.Machine.costs.Costs.thread_create_nk;
  let th = Exec.spawn t.machine.Machine.exec ~cpu:core ~name body in
  t.threads <- th :: t.threads;
  th

let join_thread t th = Exec.join t.machine.Machine.exec th
let thread_count t = List.length t.threads

(* --- memory --- *)

let shootdown t =
  (* A merge only rewrites lower-half PML4 slots, so the shootdown is a
     ranged invalidation of the lower half: the higher-half 1 GiB identity
     entries — the whole point of the large-page AeroKernel map — survive. *)
  let costs = t.machine.Machine.costs in
  List.iter
    (fun core ->
      let cpu = t.machine.Machine.cpus.(core) in
      Tlb.invalidate_range cpu.Cpu.tlb ~page:0
        ~npages:(Addr.page_of Addr.higher_half_base);
      Walk_cache.flush cpu.Cpu.pwc;
      Machine.charge t.machine costs.Costs.tlb_shootdown_percore)
    (cores t)

let merge_lower_half t ~from =
  ignore (Page_table.copy_lower_half ~src:from ~dst:t.pt);
  t.merged_from <- Some from;
  t.merge_gen <- Page_table.lower_half_generation from;
  (* Huge leaves ride along structurally — slot sharing copies whole
     sub-trees, large pages included.  Superposition re-verifies this
     invariant at the HVM level after each full merge. *)
  shootdown t

let remerge t =
  Tracer.with_span t.machine.Machine.obs ~name:"nk:remerge" ~cat:"hrt" @@ fun () ->
  let svc = services t in
  let from = svc.svc_request_remerge () in
  t.n_remerges <- t.n_remerges + 1;
  Machine.charge t.machine t.machine.Machine.costs.Costs.merge_address_space;
  merge_lower_half t ~from

(* Would the access succeed against the current ROS master table?  True
   means the HRT's merged copy is merely stale and a local re-merge fixes
   the fault without any ROS involvement — the promotion-table fast path
   for repeat lower-half faults. *)
let page_resolves t addr ~write =
  match t.merged_from with
  | None -> false
  | Some src -> (
      match Page_table.walk src addr with
      | Some pte, _ ->
          Page_table.has pte.Page_table.pte_flags Page_table.f_present
          && ((not write) || Page_table.has pte.Page_table.pte_flags Page_table.f_writable)
      | None, _ -> false)

let access t addr ~write =
  let costs = t.machine.Machine.costs in
  let exec = t.machine.Machine.exec in
  let core = Exec.cpu_of (Exec.self exec) in
  let cpu = t.machine.Machine.cpus.(core) in
  if cpu.Cpu.cr3 <> Page_table.id t.pt then Cpu.load_cr3 cpu t.pt;
  (* Stale-merge guard: if the ROS replaced a lower-half PML4 slot since we
     merged, our copy still points at the old sub-tree and would translate
     stale frames *without faulting*.  The generation word is shared state
     the merger maintains, so the check is a single compare. *)
  (match t.merged_from with
  | Some src
    when Addr.is_lower_half addr
         && Page_table.lower_half_generation src <> t.merge_gen ->
      remerge t
  | Some _ | None -> ());
  let kind = if write then Mmu.Write else Mmu.Read in
  let page = Addr.page_of addr in
  let rec attempt tries =
    if tries > 16 then failwith "Nautilus.access: unresolvable fault"
    else
      match Mmu.access costs cpu t.pt addr kind with
      | Mmu.Hit (_, cost) -> Machine.charge t.machine cost
      | Mmu.Silent_write (_, cost) ->
          (* Unreachable while CR0.WP is set; with WP cleared this is
             exactly the paper's "mysterious memory corruption": the write
             lands on a page that was meant to be protected. *)
          Machine.charge t.machine cost;
          t.n_silent_writes <- t.n_silent_writes + 1
      | Mmu.Fault (_, cost) ->
          Machine.charge t.machine cost;
          if Addr.is_higher_half addr then begin
            (* With 1 GiB identity leaves this cannot happen inside the
               mapped span.  Without them, the direct map fills 4 KiB at a
               time on first touch. *)
            let hh_page = Addr.page_of (addr - Addr.higher_half_base) in
            if t.machine.Machine.config.huge_pages || hh_page >= t.phys_pages then
              failwith "Nautilus.access: fault in AeroKernel half"
            else begin
              Machine.charge t.machine (costs.Costs.demand_page / 4);
              Page_table.map t.pt (Addr.align_down addr) ~frame:hh_page
                ~flags:Page_table.(f_present lor f_writable);
              t.n_hh_fills <- t.n_hh_fills + 1;
              attempt (tries + 1)
            end
          end
          else begin
            (* Vector through the IDT onto the IST stack. *)
            Machine.charge t.machine costs.Costs.interrupt_dispatch;
            (match Hashtbl.find_opt t.recent_fault core with
            | Some last_page when last_page = page && t.merged_from <> None ->
                (* Same page faulted twice in a row: our PML4 copy is
                   stale; re-merge instead of forwarding again. *)
                Hashtbl.remove t.recent_fault core;
                remerge t
            | Some _ | None -> (
                Hashtbl.replace t.recent_fault core page;
                t.n_faults_forwarded <- t.n_faults_forwarded + 1;
                let svc = services t in
                match svc.svc_forward_fault addr ~write with
                | Fault_fixed -> ()
                | Fault_fatal reason ->
                    failwith ("Nautilus.access: ROS reports fatal fault: " ^ reason)));
            attempt (tries + 1)
          end
  in
  attempt 0

(* --- syscalls --- *)

let syscall t ~name work =
  Tracer.with_span t.machine.Machine.obs ~name:("sys:" ^ name) ~cat:"guest" @@ fun () ->
  let costs = t.machine.Machine.costs in
  (* Ring-0 to ring-0 SYSCALL: the trap itself, the stack-pointer pull that
     protects the red zone, and the emulated SYSRET on the way back. *)
  Machine.charge t.machine
    (costs.Costs.syscall_trap + costs.Costs.redzone_stack_pull
   + costs.Costs.sysret_emulation);
  t.n_syscalls_forwarded <- t.n_syscalls_forwarded + 1;
  (services t).svc_forward_syscall name work

(* --- exported functions --- *)

let register_func t ~name ~cost impl =
  let addr = t.next_func_addr in
  t.next_func_addr <- t.next_func_addr + 0x1000;
  Hashtbl.replace t.funcs name { fn_addr = addr; fn_cost = cost; fn_impl = impl }

let func_address t name =
  match Hashtbl.find_opt t.funcs name with
  | Some f -> Some f.fn_addr
  | None -> None

let call_func t ~name =
  let f = Hashtbl.find t.funcs name in
  Machine.charge t.machine f.fn_cost;
  f.fn_impl ()

let stats_silent_writes t = t.n_silent_writes
let stats_faults_forwarded t = t.n_faults_forwarded
let stats_remerges t = t.n_remerges
let stats_syscalls_forwarded t = t.n_syscalls_forwarded
let stats_hh_fills t = t.n_hh_fills
