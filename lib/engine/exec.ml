type thread_state = Ready | Running | Blocked of string | Finished

(* What [thread_state] says, minus the block reason: all four are
   immediates, so blocking stores an int and boxes nothing that would stay
   live while the thread is parked.  The reason sits in [t_reason], and
   {!state} rebuilds [Blocked reason] on demand. *)
type status = S_ready | S_running | S_blocked | S_finished

type thread = {
  t_id : int;
  t_name : string;
  mutable t_cpu : int;  (* home cpu; work stealing may migrate it *)
  mutable t_status : status;
  mutable t_reason : string;  (* the last block's reason; read while [S_blocked] *)
  mutable t_seg_start : int;
  mutable t_charge : int;
  mutable t_slice_base : int;  (* charge level at last slice reset *)
  mutable t_block_end : int;  (* local time at which the last segment ended *)
  mutable t_total : int;
  mutable t_vcsw : int;
  mutable t_ivcsw : int;
  mutable t_body : unit -> unit;
      (* the thread's body until its first dispatch starts it ([no_body]
         afterwards); woken blocks resume through [t_resumer] instead *)
  mutable t_resumer : Obj.t;
      (* the pending ['a Fiber.resumer] while blocked or woken-and-queued;
         [no_resumer] otherwise.  Stored untyped so the record is not
         parameterized by the block's wake type — values are uniformly
         represented, and [t_wake_v] is always the matching ['a]. *)
  mutable t_wake_v : Obj.t;  (* value to resume [t_resumer] with *)
  mutable t_can_cancel : bool;
      (* the registration is still outstanding (kill must discontinue);
         cleared by wake and by resume *)
  mutable t_wake_fn : Obj.t -> unit;
      (* per-thread wake callback shared by every [block], so waking
         allocates nothing; filled in lazily (captures the executor) *)
  mutable t_on_exit : (unit -> unit) list;
  mutable t_exit_time : int;  (* virtual time of termination, once Finished *)
  mutable t_enqueue_fn : unit -> unit;
      (* the wake-enqueue event callback, allocated once per thread rather
         than per wake; filled in lazily (captures the executor) *)
  mutable t_some : thread option;
      (* cached [Some th] so entering a segment does not box [t.current] *)
}

(* Per-cpu run queue: a growable circular buffer instead of [Queue.t], so
   an enqueue is an array store (no cons cell per element) and a dequeue
   returns the thread directly (no [Some] box).  Popped slots keep a stale
   reference — harmless, every thread is retained in [all_threads_rev]
   for its whole lifetime anyway. *)
module Runq = struct
  type t = {
    mutable buf : thread array;  (* length 0 until the first push *)
    mutable head : int;
    mutable len : int;
  }

  let create () = { buf = [||]; head = 0; len = 0 }
  let is_empty q = q.len = 0

  let grow q fill =
    let cap = Array.length q.buf in
    if q.len >= cap then begin
      let ncap = max 16 (cap * 2) in
      let nb = Array.make ncap fill in
      for i = 0 to q.len - 1 do
        nb.(i) <- q.buf.((q.head + i) mod cap)
      done;
      q.buf <- nb;
      q.head <- 0
    end

  let push q th =
    grow q th;
    q.buf.((q.head + q.len) mod Array.length q.buf) <- th;
    q.len <- q.len + 1

  let pop_exn q =
    if q.len = 0 then invalid_arg "Exec.Runq.pop_exn: empty";
    let th = q.buf.(q.head) in
    q.head <- (q.head + 1) mod Array.length q.buf;
    q.len <- q.len - 1;
    th

  let clear q =
    q.head <- 0;
    q.len <- 0

  (* Front-to-back. *)
  let iter f q =
    let cap = Array.length q.buf in
    for i = 0 to q.len - 1 do
      f q.buf.((q.head + i) mod cap)
    done

  let fold f acc q =
    let acc = ref acc in
    iter (fun th -> acc := f !acc th) q;
    !acc

  (* Allocation-free (the loop refs do not escape, so they compile to
     mutable locals) — this runs on every idle-core steal probe. *)
  let has_ready q =
    let cap = Array.length q.buf in
    let found = ref false in
    for i = 0 to q.len - 1 do
      if (not !found) && q.buf.((q.head + i) mod cap).t_status = S_ready then
        found := true
    done;
    !found
end

type cpu = {
  c_id : int;
  mutable c_busy_until : int;
  c_runq : Runq.t;
  mutable c_last_tid : int;
  mutable c_switch_cost : int;
  mutable c_slice : int option;
  mutable c_dispatch_armed_at : int;
      (* earliest pending dispatch event for this cpu, -1 = none.  With
         thousands of Ready threads queued on one core, every segment end
         would otherwise wake the whole herd of stale dispatch events and
         each would reschedule itself at the new busy_until — O(n^2) event
         churn.  One armed event per cpu is always sufficient: dispatch is
         state-driven and re-arms itself while the core is busy. *)
  mutable c_switches : int;
  mutable c_steals : int;  (* successful steals performed by this cpu *)
  mutable c_idle_expiries : int;
      (* timer expiries with an empty run queue; every Nth models a
         preemption by unrelated background work, as /usr/bin/time would
         report on a real (non-idle) machine *)
  mutable c_dispatch_fn : unit -> unit;
      (* the dispatch event callback, allocated once at [create] rather
         than per [request_dispatch]; filled in after [t] exists *)
}

(* Sentinel for [c_dispatch_fn] before its first arm; a single module-level
   closure so the install check can be physical equality ([ignore] itself
   is an external and eta-expands to a fresh closure per use site). *)
let dispatch_fn_unset () = ()

(* Same trick for the per-thread wake callback, and for a thread's body
   once it has started. *)
let wake_fn_unset (_ : Obj.t) = ()
let no_body () = ()

(* [t_resumer] when no registration is pending: an immediate, so the
   presence check is a pointer-vs-int comparison. *)
let no_resumer : Obj.t = Obj.repr 0

type sched_hook = {
  sh_pick : cpu:int -> thread array -> int;
  sh_preempt : cpu:int -> thread -> bool;
  sh_steal : cpu:int -> victims:int array -> int;
}

(* Sentinel for "no timestamp override" — [ctx_now] is a plain [int] so
   entering a callback window stores an unboxed value instead of a [Some]. *)
let no_ctx_now = min_int

type t = {
  sim : Sim.t;
  cpus : cpu array;
  mutable current : thread option;
  mutable ctx_now : int;  (* timestamp override for callback windows; [no_ctx_now] = none *)
  mutable next_tid : int;
  mutable charge_hook : (thread -> int -> unit) option;
  mutable sched_hook : sched_hook option;
  mutable steal_domain : bool array option;
      (* per-cpu membership in the work-stealing domain, [None] = stealing
         off (the default).  Only cores inside the domain steal, and only
         from each other — the ROS never drains an HRT core's queue. *)
  mutable all_threads_rev : thread list;  (* every thread ever spawned *)
}

let create sim ~ncpus =
  let cpus =
    Array.init ncpus (fun i ->
        {
          c_id = i;
          c_busy_until = 0;
          c_runq = Runq.create ();
          c_last_tid = -1;
          c_switch_cost = 0;
          c_slice = None;
          c_dispatch_armed_at = -1;
          c_switches = 0;
          c_steals = 0;
          c_idle_expiries = 0;
          c_dispatch_fn = dispatch_fn_unset;
        })
  in
  {
    sim;
    cpus;
    current = None;
    ctx_now = no_ctx_now;
    next_tid = 0;
    charge_hook = None;
    sched_hook = None;
    steal_domain = None;
    all_threads_rev = [];
  }

let sim t = t.sim
let ncpus t = Array.length t.cpus
let set_sched_hook t hook = t.sched_hook <- hook
let threads t = List.rev t.all_threads_rev

let set_steal_domain t cores =
  match cores with
  | None -> t.steal_domain <- None
  | Some cores ->
      let dom = Array.make (Array.length t.cpus) false in
      List.iter
        (fun c ->
          if c < 0 || c >= Array.length t.cpus then
            invalid_arg "Exec.set_steal_domain: core out of range";
          dom.(c) <- true)
        cores;
      t.steal_domain <- Some dom

let steals t ~cpu = t.cpus.(cpu).c_steals

let runq t ~cpu =
  List.rev (Runq.fold (fun acc th -> th :: acc) [] t.cpus.(cpu).c_runq)

let set_cpu_params t ~cpu ?switch_cost ?slice () =
  let c = t.cpus.(cpu) in
  (match switch_cost with Some sc -> c.c_switch_cost <- sc | None -> ());
  match slice with Some s -> c.c_slice <- s | None -> ()

let local_now t =
  match t.current with
  | Some th -> th.t_seg_start + th.t_charge
  | None -> if t.ctx_now <> no_ctx_now then t.ctx_now else Sim.now t.sim

let with_ctx_now t now f =
  let saved = t.ctx_now in
  t.ctx_now <- now;
  match f () with
  | v ->
      t.ctx_now <- saved;
      v
  | exception e ->
      t.ctx_now <- saved;
      raise e

(* --- dispatch --- *)

(* Fast pre-check for [try_steal]: an idle core probes on every dispatch,
   so discovering "no domain peer has ready work" must not allocate. *)
let steal_candidates_exist t cpu dom =
  let found = ref false in
  for i = 0 to Array.length t.cpus - 1 do
    if not !found then begin
      let c = t.cpus.(i) in
      if c.c_id <> cpu.c_id && dom.(c.c_id) && Runq.has_ready c.c_runq then
        found := true
    end
  done;
  !found

let rec dispatch t cpu () =
  if t.current = None then begin
    (* An idle core (free, nothing queued) inside the steal domain pulls
       work from a loaded peer before giving up the dispatch. *)
    if
      Runq.is_empty cpu.c_runq
      && t.steal_domain <> None
      && Sim.now t.sim >= cpu.c_busy_until
    then try_steal t cpu;
    if not (Runq.is_empty cpu.c_runq) then run_one t cpu
  end

and run_one t cpu =
  begin
    let now = Sim.now t.sim in
    if now < cpu.c_busy_until then
      request_dispatch t cpu ~at:cpu.c_busy_until
    else
      match t.sched_hook with
      | None ->
          if not (Runq.is_empty cpu.c_runq) then begin
            let th = Runq.pop_exn cpu.c_runq in
            if th.t_status <> S_ready then dispatch t cpu () else run_segment t cpu th
          end
      | Some hook -> (
          (* Schedule-exploration choice point: collect the Ready threads
             in FIFO order (dropping stale entries), let the hook pick one,
             and re-queue the rest in their original order.  A hook that
             always picks index 0 reproduces the FIFO path exactly. *)
          let cands =
            List.rev
              (Runq.fold
                 (fun acc th -> if th.t_status = S_ready then th :: acc else acc)
                 [] cpu.c_runq)
          in
          Runq.clear cpu.c_runq;
          match cands with
          | [] -> ()
          | [ th ] -> run_segment t cpu th
          | cands ->
              let arr = Array.of_list cands in
              let i = hook.sh_pick ~cpu:cpu.c_id arr in
              let i = if i < 0 || i >= Array.length arr then 0 else i in
              Array.iteri (fun j th -> if j <> i then Runq.push cpu.c_runq th) arr;
              run_segment t cpu arr.(i))
  end

(* Deterministic work stealing.  The thief considers every other domain
   core in ascending id order; the default victim is the one with the most
   Ready threads (ties to the lowest core id).  A sched hook may divert the
   choice to any candidate victim — that is the interleaving mvcheck
   explores — but the candidate list itself is a pure function of the
   queues.  The steal takes the oldest ceil(n/2) Ready threads ("steal
   half"), preserving relative FIFO order on both queues. *)
and try_steal t cpu =
  match t.steal_domain with
  | None -> ()
  | Some dom when not dom.(cpu.c_id) -> ()
  | Some dom when not (steal_candidates_exist t cpu dom) -> ()
  | Some dom -> (
      let ready_count c =
        Runq.fold (fun n th -> if th.t_status = S_ready then n + 1 else n) 0 c.c_runq
      in
      let cands = ref [] in
      Array.iter
        (fun c ->
          if c.c_id <> cpu.c_id && dom.(c.c_id) then
            let n = ready_count c in
            if n > 0 then cands := (c, n) :: !cands)
        t.cpus;
      let cands =
        List.stable_sort
          (fun (a, na) (b, nb) -> compare (-na, a.c_id) (-nb, b.c_id))
          (List.rev !cands)
      in
      match cands with
      | [] -> ()
      | cands ->
          let arr = Array.of_list cands in
          let pick =
            match t.sched_hook with
            | Some hook when Array.length arr > 1 ->
                let victims = Array.map (fun (c, _) -> c.c_id) arr in
                let i = hook.sh_steal ~cpu:cpu.c_id ~victims in
                if i < 0 || i >= Array.length arr then 0 else i
            | _ -> 0
          in
          let victim, nready = arr.(pick) in
          let want = (nready + 1) / 2 in
          let all = List.rev (Runq.fold (fun acc th -> th :: acc) [] victim.c_runq) in
          Runq.clear victim.c_runq;
          let taken = ref 0 in
          List.iter
            (fun th ->
              if th.t_status = S_ready && !taken < want then begin
                incr taken;
                th.t_cpu <- cpu.c_id;
                Runq.push cpu.c_runq th
              end
              else Runq.push victim.c_runq th)
            all;
          cpu.c_steals <- cpu.c_steals + 1)

(* New work appeared on [owner]'s queue: give every other free domain core
   a chance to steal it (the owner's own dispatch is requested first, so a
   free owner still wins its local work). *)
and poke_thieves t ~owner ~at =
  match t.steal_domain with
  | None -> ()
  | Some dom ->
      if dom.(owner.c_id) then
        Array.iter
          (fun c ->
            if c.c_id <> owner.c_id && dom.(c.c_id) then request_dispatch t c ~at)
          t.cpus

and request_dispatch t cpu ~at =
  let at = Int.max at (Int.max cpu.c_busy_until (Sim.now t.sim)) in
  if cpu.c_dispatch_armed_at < 0 || at < cpu.c_dispatch_armed_at then begin
    cpu.c_dispatch_armed_at <- at;
    (* The callback is shared across arms (allocated on the cpu record the
       first time through), so arming costs no closure.  A dispatch event
       fires exactly at its scheduled time, so [Sim.now = at-of-this-arm]
       replaces the captured [at] in the stale-event disarm check. *)
    if cpu.c_dispatch_fn == dispatch_fn_unset then
      cpu.c_dispatch_fn <-
        (fun () ->
          if cpu.c_dispatch_armed_at = Sim.now t.sim then cpu.c_dispatch_armed_at <- -1;
          dispatch t cpu ());
    Sim.schedule_at t.sim at cpu.c_dispatch_fn
  end

and run_segment t cpu th =
  let switch =
    if cpu.c_last_tid <> th.t_id && cpu.c_last_tid >= 0 then begin
      cpu.c_switches <- cpu.c_switches + 1;
      cpu.c_switch_cost
    end
    else 0
  in
  cpu.c_last_tid <- th.t_id;
  th.t_status <- S_running;
  th.t_seg_start <- Int.max (Sim.now t.sim) cpu.c_busy_until + switch;
  th.t_charge <- 0;
  th.t_slice_base <- 0;
  t.current <- th.t_some;
  (if th.t_resumer != no_resumer then begin
     let r : Obj.t Fiber.resumer = Obj.obj th.t_resumer in
     let v = th.t_wake_v in
     th.t_resumer <- no_resumer;
     th.t_wake_v <- no_resumer;
     th.t_can_cancel <- false;
     Fiber.resume r v
   end
   else if th.t_body != no_body then Fiber.run_with start_current t
   else failwith "Exec: dispatching thread with no continuation");
  (* The fiber has host-returned: it blocked, yielded, or finished; the
     per-case bookkeeping already ran inside the fiber. *)
  assert (t.current = None)

(* Finalize the current segment; returns the thread (its end time is
   [t_block_end] — no tuple, this is a per-segment path). *)
and end_segment t =
  match t.current with
  | None -> failwith "Exec: no running thread"
  | Some th ->
      let cpu = t.cpus.(th.t_cpu) in
      let t_end = th.t_seg_start + th.t_charge in
      th.t_total <- th.t_total + th.t_charge;
      th.t_block_end <- t_end;
      cpu.c_busy_until <- t_end;
      t.current <- None;
      request_dispatch t cpu ~at:t_end;
      th

(* A thread's first segment, run as a fiber by [run_segment]: a top-level
   function of the executor, which reads the thread from [t.current], so
   spawning allocates no start closure. *)
and start_current t =
  let th = match t.current with Some th -> th | None -> assert false in
  let body = th.t_body in
  th.t_body <- no_body;
  match body () with
  | () -> finish t
  | exception Fiber.Cancelled ->
      (* Killed: {!kill} already did the bookkeeping, and the current
         segment belongs to the killer — do not touch it. *)
      ()

(* The body returned: end the last segment and run the exit callbacks. *)
and finish t =
  let th = end_segment t in
  let t_end = th.t_block_end in
  th.t_status <- S_finished;
  th.t_exit_time <- t_end;
  let callbacks = List.rev th.t_on_exit in
  th.t_on_exit <- [];
  with_ctx_now t t_end (fun () -> List.iter (fun f -> f ()) callbacks)

and make_runnable t th ~at =
  match th.t_status with
  | S_finished -> ()
  | S_running | S_ready -> failwith "Exec: waking a thread that is not blocked"
  | S_blocked ->
      th.t_status <- S_ready;
      enqueue_at t th ~at:(Int.max at th.t_block_end)

(* The run queue must only ever hold threads that are eligible to run {e at
   the current virtual time}; otherwise a dispatch event scheduled for an
   earlier time could start a thread before its wake time.  So the enqueue
   itself is a timed event. *)
and enqueue_at t th ~at =
  let at = Int.max at (Sim.now t.sim) in
  (* Shared across wakes: the event fires exactly at its scheduled time,
     so [Sim.now] stands in for the captured [at]. *)
  if th.t_enqueue_fn == dispatch_fn_unset then
    th.t_enqueue_fn <-
      (fun () ->
        if th.t_status = S_ready then begin
          let at = Sim.now t.sim in
          let cpu = t.cpus.(th.t_cpu) in
          Runq.push cpu.c_runq th;
          request_dispatch t cpu ~at;
          poke_thieves t ~owner:cpu ~at
        end);
  Sim.schedule_at t.sim at th.t_enqueue_fn

let self t =
  match t.current with
  | Some th -> th
  | None -> failwith "Exec.self: no thread context"

let self_opt t = t.current

let block (type a) t ~reason (register : now:int -> wake:(a -> unit) -> unit) :
    a =
  let th = self t in
  th.t_vcsw <- th.t_vcsw + 1;
  th.t_status <- S_blocked;
  th.t_reason <- reason;
  let t_end = (end_segment t).t_block_end in
  Fiber.suspend (fun (resumer : a Fiber.resumer) ->
      th.t_resumer <- Obj.repr resumer;
      th.t_can_cancel <- true;
      if th.t_wake_fn == wake_fn_unset then
        th.t_wake_fn <-
          (fun v ->
            if th.t_status <> S_finished then begin
              th.t_can_cancel <- false;
              th.t_wake_v <- v;
              make_runnable t th ~at:(local_now t)
            end);
      (* The wake function is shared across this thread's blocks (monomorphic
         at [Obj.t] — values are uniformly represented), so a block allocates
         no wake closure, no resume thunk, and no cancel thunk.  The usual
         contract stands: wake only while this block is outstanding, at most
         once effectively (callers guard with one-shot refs). *)
      let wake : a -> unit = Obj.magic th.t_wake_fn in
      with_ctx_now t t_end (fun () -> register ~now:t_end ~wake))

let requeue_self t =
  let th = self t in
  th.t_status <- S_blocked;
  th.t_reason <- "yield";
  let t_end = (end_segment t).t_block_end in
  Fiber.suspend (fun (resumer : unit Fiber.resumer) ->
      th.t_resumer <- Obj.repr resumer;
      th.t_wake_v <- Obj.repr ();
      th.t_can_cancel <- true;
      th.t_status <- S_ready;
      let cpu = t.cpus.(th.t_cpu) in
      Runq.push cpu.c_runq th;
      request_dispatch t cpu ~at:t_end;
      poke_thieves t ~owner:cpu ~at:t_end)

let yield t =
  let th = self t in
  th.t_vcsw <- th.t_vcsw + 1;
  requeue_self t

let preempt t =
  let th = self t in
  th.t_ivcsw <- th.t_ivcsw + 1;
  requeue_self t

let set_charge_hook t hook = t.charge_hook <- Some hook

let charge t c =
  match t.current with
  | None -> failwith "Exec.charge: no thread context"
  | Some th -> (
      th.t_charge <- th.t_charge + c;
      (match t.charge_hook with Some hook -> hook th c | None -> ());
      let cpu = t.cpus.(th.t_cpu) in
      match cpu.c_slice with
      | Some slice when th.t_charge - th.t_slice_base >= slice ->
          if Runq.is_empty cpu.c_runq then begin
            (* Timer fires but no local competitor: usually keep going,
               but every 8th expiry a background task (kernel thread,
               daemon) briefly takes the core. *)
            th.t_slice_base <- th.t_charge;
            cpu.c_idle_expiries <- cpu.c_idle_expiries + 1;
            if cpu.c_idle_expiries land 7 = 0 then begin
              th.t_ivcsw <- th.t_ivcsw + 1;
              cpu.c_switches <- cpu.c_switches + 1;
              th.t_charge <- th.t_charge + (2 * cpu.c_switch_cost)
            end
          end
          else begin
            (* Preemption-point choice: a hook may extend the slice instead
               of preempting (modelling timer jitter); default is preempt. *)
            match t.sched_hook with
            | Some hook when not (hook.sh_preempt ~cpu:cpu.c_id th) ->
                th.t_slice_base <- th.t_charge
            | Some _ | None -> preempt t
          end
      | Some _ | None -> ())

let sleep t delay =
  block t ~reason:"sleep" (fun ~now ~wake ->
      Sim.schedule_at t.sim (now + delay) wake)

let spawn t ~cpu ~name body =
  let id = t.next_tid in
  t.next_tid <- t.next_tid + 1;
  let th =
    {
      t_id = id;
      t_name = name;
      t_cpu = cpu;
      t_status = S_ready;
      t_reason = "";
      t_seg_start = 0;
      t_charge = 0;
      t_slice_base = 0;
      t_block_end = local_now t;
      t_total = 0;
      t_vcsw = 0;
      t_ivcsw = 0;
      t_body = body;
      t_resumer = no_resumer;
      t_wake_v = no_resumer;
      t_can_cancel = false;
      t_wake_fn = wake_fn_unset;
      t_on_exit = [];
      t_exit_time = 0;
      t_enqueue_fn = dispatch_fn_unset;
      t_some = None;
    }
  in
  th.t_some <- Some th;
  t.all_threads_rev <- th :: t.all_threads_rev;
  enqueue_at t th ~at:(local_now t);
  th

let kill t th =
  match th.t_status with
  | S_finished -> ()
  | S_running -> invalid_arg "Exec.kill: cannot kill the running thread"
  | S_ready | S_blocked ->
      th.t_status <- S_finished;
      th.t_exit_time <- local_now t;
      let callbacks = List.rev th.t_on_exit in
      th.t_on_exit <- [];
      (* Discontinue only a still-outstanding registration; a woken thread
         waiting in the run queue just has its pending resume dropped (the
         killer's segment must not run the victim's finalizers twice). *)
      let resumer = th.t_resumer in
      let cancelable = th.t_can_cancel in
      th.t_resumer <- no_resumer;
      th.t_wake_v <- no_resumer;
      th.t_can_cancel <- false;
      th.t_body <- no_body;
      with_ctx_now t th.t_exit_time (fun () ->
          (if cancelable && resumer != no_resumer then
             Fiber.cancel (Obj.obj resumer : Obj.t Fiber.resumer) Fiber.Cancelled);
          List.iter (fun f -> f ()) callbacks)

(* Core lending support: evacuate one cpu's scheduling state onto another.
   Queued entries move in FIFO order, appended after [dst]'s own queue;
   every live thread homed on [cpu] is retargeted, which also re-homes
   pending wake-enqueue events ([t_enqueue_fn] reads [t.cpus.(th.t_cpu)]
   at fire time) so a wakeup issued before the move still lands — on the
   new home — with nothing lost.  The vacated core's last-thread affinity
   is fenced; its stale armed dispatch event, if any, fires into an empty
   queue and is harmless (dispatch is state-driven). *)
let rehome t ~cpu ~dst =
  if cpu = dst then 0
  else begin
    (match t.current with
    | Some th when th.t_cpu = cpu ->
        invalid_arg "Exec.rehome: cannot evacuate the running thread's core"
    | Some _ | None -> ());
    let src = t.cpus.(cpu) in
    let d = t.cpus.(dst) in
    let had_work = not (Runq.is_empty src.c_runq) in
    Runq.iter (fun th -> Runq.push d.c_runq th) src.c_runq;
    Runq.clear src.c_runq;
    let moved = ref 0 in
    List.iter
      (fun th ->
        if th.t_cpu = cpu && th.t_status <> S_finished then begin
          th.t_cpu <- dst;
          incr moved
        end)
      t.all_threads_rev;
    src.c_last_tid <- -1;
    if had_work then begin
      let at = Sim.now t.sim in
      request_dispatch t d ~at;
      poke_thieves t ~owner:d ~at
    end;
    !moved
  end

let state _t th =
  match th.t_status with
  | S_ready -> Ready
  | S_running -> Running
  | S_blocked -> Blocked th.t_reason
  | S_finished -> Finished

let name th = th.t_name
let tid th = th.t_id
let cpu_of th = th.t_cpu

let join t target =
  match target.t_status with
  | S_finished when target.t_exit_time <= local_now t -> ()
  | S_finished ->
      (* Finished in host order but, virtually, later than now: wait. *)
      block t ~reason:("join " ^ target.t_name) (fun ~now:_ ~wake ->
          Sim.schedule_at t.sim (Int.max target.t_exit_time (Sim.now t.sim)) wake)
  | S_ready | S_running | S_blocked ->
      block t ~reason:("join " ^ target.t_name) (fun ~now:_ ~wake ->
          target.t_on_exit <- wake :: target.t_on_exit)

let after t delay fn = Sim.schedule_at t.sim (local_now t + delay) fn

let cpu_time th = th.t_total
let voluntary_switches th = th.t_vcsw
let involuntary_switches th = th.t_ivcsw
let cpu_switches t ~cpu = t.cpus.(cpu).c_switches
