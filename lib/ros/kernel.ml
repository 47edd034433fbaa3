open Mv_hw
module Machine = Mv_engine.Machine
module Exec = Mv_engine.Exec
module Trace = Mv_engine.Trace

exception Process_killed of string

type task = { tk_proc : Process.t; tk_thread : Exec.thread }

type t = {
  machine : Machine.t;
  vfs : Vfs.t;
  mutable procs : Process.t list;
  mutable next_pid : int;
  mutable virtualized : bool;
  mutable vm_exits : int;
  mutable silent_corruptions : int;
  wall_epoch : float;
  wall_started : (int, Mv_util.Cycles.t) Hashtbl.t;
  wall_finished : (int, Mv_util.Cycles.t) Hashtbl.t;
  futexes : (int * int, (unit -> unit) Queue.t) Hashtbl.t;
  ros_cores : int array;  (* cached for the O(1) round-robin picker *)
  mutable rr_next : int;
  (* Per thread, indexed by Exec tid (dense per machine) and grown
     together: the task of a thread the kernel owns, and its [in_sys]
     depth.  Charged cycles are user time, or system time at depth > 0. *)
  mutable tasks : task option array;
  mutable sys_depths : int array;
}

let create ?(virtualized = false) machine =
  let t =
    {
      machine;
      vfs = Vfs.create ();
      procs = [];
      next_pid = 1;
      virtualized;
      vm_exits = 0;
      silent_corruptions = 0;
      wall_epoch = 1_700_000_000.0;
      wall_started = Hashtbl.create 16;
      wall_finished = Hashtbl.create 16;
      futexes = Hashtbl.create 32;
      ros_cores = Array.of_list (Topology.ros_cores machine.Machine.topo);
      rr_next = 0;
      tasks = Array.make 64 None;
      sys_depths = Array.make 64 0;
    }
  in
  Exec.set_charge_hook machine.Machine.exec (fun th c ->
      let tid = Exec.tid th in
      if tid < Array.length t.tasks then
        match t.tasks.(tid) with
        | None -> ()
        | Some task ->
            let ru = task.tk_proc.Process.rusage in
            if t.sys_depths.(tid) > 0 then ru.Rusage.stime <- ru.Rusage.stime + c
            else ru.Rusage.utime <- ru.Rusage.utime + c);
  t

(* Make room for [tid] in the per-thread arrays. *)
let reserve t tid =
  let n = Array.length t.tasks in
  if tid >= n then begin
    let n' = max (tid + 1) (2 * n) in
    let tasks = Array.make n' None and sys_depths = Array.make n' 0 in
    Array.blit t.tasks 0 tasks 0 n;
    Array.blit t.sys_depths 0 sys_depths 0 n;
    t.tasks <- tasks;
    t.sys_depths <- sys_depths
  end

(* Make [th] one of [p]'s threads, charged to [p]. *)
let register t p th =
  p.Process.threads <- th :: p.Process.threads;
  let tid = Exec.tid th in
  reserve t tid;
  t.tasks.(tid) <- Some { tk_proc = p; tk_thread = th }

let current t =
  let tid = Exec.tid (Exec.self t.machine.Machine.exec) in
  match if tid < Array.length t.tasks then t.tasks.(tid) else None with
  | Some task -> task
  | None -> failwith "Kernel.current: thread is not a ROS task"

let in_sys t f =
  let tid = Exec.tid (Exec.self t.machine.Machine.exec) in
  reserve t tid;
  t.sys_depths.(tid) <- t.sys_depths.(tid) + 1;
  (* [finally] indexes the field afresh: [f] may grow the arrays. *)
  Fun.protect ~finally:(fun () -> t.sys_depths.(tid) <- t.sys_depths.(tid) - 1) f

let count_syscall _t p name = Mv_util.Histogram.incr p.Process.syscall_counts name

let wall_seconds t = t.wall_epoch +. Mv_util.Cycles.to_sec (Machine.now t.machine)

let runtime_of t p =
  let pid = p.Process.pid in
  let start = Option.value (Hashtbl.find_opt t.wall_started pid) ~default:0 in
  let stop =
    Option.value (Hashtbl.find_opt t.wall_finished pid) ~default:(Machine.now t.machine)
  in
  stop - start

let finalize_rusage t p =
  let ru = p.Process.rusage in
  ru.Rusage.nvcsw <- 0;
  ru.Rusage.nivcsw <- 0;
  List.iter
    (fun th ->
      ru.Rusage.nvcsw <- ru.Rusage.nvcsw + Exec.voluntary_switches th;
      ru.Rusage.nivcsw <- ru.Rusage.nivcsw + Exec.involuntary_switches th)
    p.Process.threads;
  Rusage.note_rss ru ~kb:(Mm.maxrss_kb p.Process.mm);
  (* Memory-path statistics: TLB/walk counters live per core and are
     assigned (not accumulated) so repeated getrusage calls stay stable. *)
  let hits = ref 0 and misses = ref 0 and walks = ref 0 in
  let levels = ref 0 and wcyc = ref 0 and fcyc = ref 0 in
  Array.iter
    (fun cpu ->
      let tlb = cpu.Mv_hw.Cpu.tlb in
      hits := !hits + Mv_hw.Tlb.hits tlb;
      misses := !misses + Mv_hw.Tlb.misses tlb;
      walks := !walks + Mv_hw.Tlb.walks tlb;
      levels := !levels + Mv_hw.Tlb.walk_levels tlb;
      wcyc := !wcyc + Mv_hw.Tlb.walk_cycles tlb;
      fcyc := !fcyc + Mv_hw.Tlb.fill_cycles tlb)
    t.machine.Machine.cpus;
  ru.Rusage.tlb_hits <- !hits;
  ru.Rusage.tlb_misses <- !misses;
  ru.Rusage.walks <- !walks;
  ru.Rusage.walk_levels <- !levels;
  ru.Rusage.walk_cycles <- !wcyc;
  ru.Rusage.fill_cycles <- !fcyc;
  ru.Rusage.shootdowns <- Mm.stats_shootdowns p.Process.mm;
  ru.Rusage.shootdown_cycles <- Mm.stats_shootdown_cycles p.Process.mm;
  ru.Rusage.huge_promotions <- Mm.stats_huge_promotions p.Process.mm;
  ru.Rusage.huge_splits <- Mm.stats_huge_splits p.Process.mm;
  (* The same sample lands in the metrics registry, under the memory-path
     namespaces, so exporters and fig10 read one source of truth. *)
  let m = t.machine.Machine.metrics in
  let set ~ns name v = Mv_obs.Metrics.set_counter (Mv_obs.Metrics.counter m ~ns name) v in
  set ~ns:"tlb" "hits" !hits;
  set ~ns:"tlb" "misses" !misses;
  set ~ns:"mmu" "walks" !walks;
  set ~ns:"mmu" "walk_levels" !levels;
  set ~ns:"mmu" "walk_cycles" !wcyc;
  set ~ns:"mmu" "fill_cycles" !fcyc;
  let pwc_hits = ref 0 and pwc_misses = ref 0 in
  Array.iter
    (fun cpu ->
      let pwc = cpu.Mv_hw.Cpu.pwc in
      pwc_hits := !pwc_hits + Mv_hw.Walk_cache.hits pwc;
      pwc_misses := !pwc_misses + Mv_hw.Walk_cache.misses pwc)
    t.machine.Machine.cpus;
  set ~ns:"walk_cache" "hits" !pwc_hits;
  set ~ns:"walk_cache" "misses" !pwc_misses;
  set ~ns:"mm" "shootdowns" (Mm.stats_shootdowns p.Process.mm);
  set ~ns:"mm" "shootdown_cycles" (Mm.stats_shootdown_cycles p.Process.mm);
  set ~ns:"mm" "huge_promotions" (Mm.stats_huge_promotions p.Process.mm);
  set ~ns:"mm" "huge_splits" (Mm.stats_huge_splits p.Process.mm);
  set ~ns:"mm" "minflt" ru.Rusage.minflt

(* --- processes and threads --- *)

let exit_process t p ~code =
  if not p.Process.exited then begin
    p.Process.exited <- true;
    p.Process.exit_code <- code;
    let hooks = p.Process.exit_hooks in
    p.Process.exit_hooks <- [];
    List.iter (fun h -> h p) hooks;
    Hashtbl.replace t.wall_finished p.Process.pid (Machine.now t.machine);
    finalize_rusage t p;
    let self_tid =
      match Exec.state t.machine.Machine.exec (Exec.self t.machine.Machine.exec) with
      | exception Failure _ -> None
      | _ -> Some (Exec.tid (Exec.self t.machine.Machine.exec))
    in
    List.iter
      (fun th ->
        match self_tid with
        | Some tid when tid = Exec.tid th -> ()  (* cannot kill self; raise below *)
        | _ -> ( match Exec.state t.machine.Machine.exec th with
            | Exec.Finished -> ()
            | _ -> Exec.kill t.machine.Machine.exec th))
      p.Process.threads;
    Mm.release p.Process.mm;
    (* Its threads are gone, so no signal can reach it: a handler would
       only keep the guest's runtime alive. *)
    Signal.clear_actions p.Process.signals;
    match self_tid with
    | Some tid when List.exists (fun th -> Exec.tid th = tid) p.Process.threads ->
        raise (Process_killed p.Process.pname)
    | _ -> ()
  end

(* Spread threads across the ROS cores round-robin (the Linux scheduler's
   load balancing, simplified). *)
let pick_ros_core t pref =
  match pref with
  | Some c -> c
  | None ->
      if Array.length t.ros_cores = 0 then 0
      else begin
        let c = t.ros_cores.(t.rr_next mod Array.length t.ros_cores) in
        t.rr_next <- t.rr_next + 1;
        c
      end

(* Main-thread wrapper: returning from main exits the whole process, as
   returning from main() does via the C runtime's exit(). *)
let main_body t p body () =
  try
    body ();
    if not p.Process.exited then exit_process t p ~code:0
  with Process_killed _ -> ()

(* Secondary threads just end; the process lives on. *)
let thread_body _t _p body () = try body () with Process_killed _ -> ()

let spawn_process t ~name ?cpu ?stdout_tee body =
  let pid = t.next_pid in
  t.next_pid <- t.next_pid + 1;
  let p = Process.create t.machine ~pid ~name ?stdout_tee () in
  t.procs <- p :: t.procs;
  Hashtbl.replace t.wall_started pid (Machine.now t.machine);
  let core = pick_ros_core t cpu in
  let th =
    Exec.spawn t.machine.Machine.exec ~cpu:core ~name:(name ^ "/main")
      (main_body t p (fun () -> body p))
  in
  register t p th;
  p

let spawn_thread t p ~name ?cpu body =
  let core = pick_ros_core t cpu in
  let th = Exec.spawn t.machine.Machine.exec ~cpu:core ~name (thread_body t p body) in
  register t p th;
  th

let register_foreign_thread = register

(* --- signals --- *)

let default_action t p (info : Signal.siginfo) =
  match info.Signal.si_signo with
  | Signal.Sigsegv | Signal.Sigint ->
      Machine.emit t.machine
        (Trace.Fatal_signal
           {
             signal = Signal.name info.Signal.si_signo;
             pid = p.Process.pid;
             addr = info.Signal.si_addr;
           });
      exit_process t p ~code:139
  | Signal.Sigvtalrm | Signal.Sigusr1 | Signal.Sigusr2 | Signal.Sigchld -> ()

(* A SIGSEGV is a synchronous fault: it cannot wait in the mask, so one
   that arrives blocked skips the handler and takes the default action
   (Linux's [force_sig_fault]). *)
let deliver_signal t p (info : Signal.siginfo) =
  let costs = t.machine.Machine.costs in
  let forced =
    info.Signal.si_signo = Signal.Sigsegv && Signal.is_blocked p.Process.signals Signal.Sigsegv
  in
  match if forced then Signal.Default else Signal.action p.Process.signals info.Signal.si_signo with
  | Signal.Handler h ->
      in_sys t (fun () -> Machine.charge t.machine costs.Costs.signal_deliver);
      h info;
      count_syscall t p "rt_sigreturn";
      in_sys t (fun () -> Machine.charge t.machine costs.Costs.signal_return)
  | Signal.Ignore -> ()
  | Signal.Default -> default_action t p info

(* --- faults and memory access --- *)

let service_fault t p addr ~write =
  let costs = t.machine.Machine.costs in
  in_sys t (fun () ->
      Machine.charge t.machine costs.Costs.page_fault_trap;
      if t.virtualized then begin
        (* Nested-paging fill for a first touch in a guest. *)
        t.vm_exits <- t.vm_exits + 1;
        Machine.charge t.machine costs.Costs.nested_fill
      end;
      (* Trace in address-layout-independent form (VMA kind + page offset
         within the VMA): the Multiverse runtime's own allocations shift
         mmap addresses, but the {e application's} fault sequence must be
         identical to the native run (paper, Section 4.4). *)
      (match Mm.find_vma p.Process.mm addr with
      | Some v ->
          Machine.emit t.machine
            (Trace.Page_fault
               {
                 pid = p.Process.pid;
                 vma = Some v.Mm.v_kind;
                 page_off = Mv_hw.Addr.page_of addr - v.Mm.v_start;
                 addr;
                 write;
               })
      | None ->
          Machine.emit t.machine
            (Trace.Page_fault { pid = p.Process.pid; vma = None; page_off = 0; addr; write }));
      let outcome =
        Mv_obs.Tracer.with_span t.machine.Machine.obs ~name:"pagefault" ~cat:"ros" (fun () ->
            Mm.handle_fault p.Process.mm addr ~write)
      in
      (match outcome with
      | Mm.Fixed_minor -> p.Process.rusage.Rusage.minflt <- p.Process.rusage.Rusage.minflt + 1
      | Mm.Segv _ -> ());
      outcome)

let access t addr ~write =
  let task = current t in
  let p = task.tk_proc in
  let cpu = Machine.cpu_of_current t.machine in
  let root = Mm.page_table p.Process.mm in
  if cpu.Cpu.cr3 <> Page_table.id root then Cpu.load_cr3 cpu root;
  let kind = if write then Mmu.Write else Mmu.Read in
  let rec attempt tries =
    if tries > 8 then begin
      deliver_signal t p
        { Signal.si_signo = Signal.Sigsegv; si_addr = addr; si_write = write };
      raise (Process_killed "unresolvable fault")
    end
    else
      match Mmu.access t.machine.Machine.costs cpu root addr kind with
      | Mmu.Hit (_, cost) -> Machine.charge t.machine cost
      | Mmu.Silent_write (_, cost) ->
          (* Ring-0 write through a read-only mapping with WP clear. *)
          Machine.charge t.machine cost;
          t.silent_corruptions <- t.silent_corruptions + 1
      | Mmu.Fault (_, cost) -> (
          Machine.charge t.machine cost;
          match service_fault t p addr ~write with
          | Mm.Fixed_minor -> attempt (tries + 1)
          | Mm.Segv info ->
              deliver_signal t p info;
              (* The handler is expected to have repaired the mapping
                 (e.g. the GC write barrier unprotecting a page). *)
              attempt (tries + 1))
  in
  attempt 0
