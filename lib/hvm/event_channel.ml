module Machine = Mv_engine.Machine
module Exec = Mv_engine.Exec
module Trace = Mv_engine.Trace
module Fault_plan = Mv_faults.Fault_plan
module Metrics = Mv_obs.Metrics
open Mv_hw

(* Block reasons are [prefix ^ kind] over a handful of kinds; interning
   keeps the per-call hot path free of string allocation. *)
let reason_call = Mv_util.Intern.create "evtchan:"

type kind = Async | Sync

exception Protocol_error of string
exception Channel_failure of string

type request = { req_kind : string; req_run : unit -> unit }

type outcome = Done | Timeout

(* A message on the channel.  [e_done] is shared by every entry of one
   logical call (retries, injected duplicates): the payload runs exactly
   once, re-deliveries only re-acknowledge.  [e_wake] is the waker of the
   caller attempt that sent this entry, and [e_live] says that attempt is
   still waiting: the reply and the timeout both clear it before they
   wake, so whichever comes first consumes the waker and the other is a
   no-op.  A parked caller thus holds only its entry — no closure, option
   box or ref cell; the reply's event closure is built when [complete]
   schedules it. *)
type entry = {
  e_req : request;
  e_wake : outcome -> unit;  (* [posted] for posted requests *)
  mutable e_live : bool;
  e_done : bool ref;
  e_corrupt : bool;
}

(* The waker of a posted request, which nobody waits for. *)
let posted (_ : outcome) = ()

type t = {
  machine : Machine.t;
  mutable ckind : kind;
  mutable ros_core : int;  (* server-side core; retargeted by core lending *)
  mutable hrt_core : int;  (* HRT-side core; retargeted by core lending *)
  faults : Fault_plan.t;
  dedup : bool;
  resilient : bool;
  queue : entry Queue.t;
  mutable serving : entry option;
  mutable server_wake : (unit -> unit) option;
  mutable notify : (unit -> unit) option;
  mutable failed : bool;
  (* Slots in the machine's metrics registry, resolved once here and
     shared by every channel on the machine. *)
  c_calls : Metrics.counter;
  c_timeouts : Metrics.counter;
  c_retries : Metrics.counter;
  c_protocol_errors : Metrics.counter;
  c_degraded : Metrics.counter;
}

let rtt_of machine ~kind ~ros_core ~hrt_core =
  let costs = machine.Machine.costs in
  match kind with
  | Async -> costs.Costs.async_channel_rtt
  | Sync ->
      (* Distance-scaled: 0 and 1 hops are Figure 2's same/cross-socket
         numbers verbatim; wider machines pay per extra hop. *)
      let d = Topology.distance machine.Machine.topo ros_core hrt_core in
      Costs.sync_channel_rtt costs ~distance:d

(* Resilience: an attempt times out after [timeout_rtts] round trips of
   the channel as it is when the attempt starts, so a degrade, restore or
   re-home resizes every later timeout; the first retry backs off one
   round trip and each next one doubles. *)
let timeout_rtts = 64
let max_retries = 6

let create ?(faults = Fault_plan.none) ?(dedup = true) machine ~kind ~ros_core ~hrt_core =
  let counter = Metrics.counter machine.Machine.metrics ~ns:"event_channel" in
  {
    machine;
    ckind = kind;
    ros_core;
    hrt_core;
    faults;
    dedup;
    (* Timeouts and retries arm only under a fault plan: the default
       channel is byte-identical to the seed. *)
    resilient = Fault_plan.enabled faults;
    queue = Queue.create ();
    serving = None;
    server_wake = None;
    notify = None;
    failed = false;
    c_calls = counter "calls";
    c_timeouts = counter "timeouts";
    c_retries = counter "retries";
    c_protocol_errors = counter "protocol_errors";
    c_degraded = counter "degraded";
  }

let kind t = t.ckind
let rtt t = rtt_of t.machine ~kind:t.ckind ~ros_core:t.ros_core ~hrt_core:t.hrt_core
let one_way t = rtt t / 2
let ros_core t = t.ros_core
let hrt_core t = t.hrt_core

let rehome t ?ros_core ?hrt_core () =
  (* Core lending moved an end of the channel; the RTT, and with it every
     later timeout, follows the new socket distance ([rtt] recomputes per
     call). *)
  (match ros_core with Some c -> t.ros_core <- c | None -> ());
  match hrt_core with Some c -> t.hrt_core <- c | None -> ()

let signal_cost t =
  (* Raising the event: a hypercall for the async (interrupt-injected)
     channel; a shared-memory store for the sync channel. *)
  match t.ckind with
  | Async -> t.machine.Machine.costs.Costs.hypercall
  | Sync -> 20

(* The one-way delivery latency, plus extra in-flight latency when a delay
   fault fires on this message. *)
let deliver_latency t req_kind =
  let base = one_way t in
  if Fault_plan.fire t.faults Fault_plan.Chan_delay req_kind then
    base + Fault_plan.extra_delay t.faults Fault_plan.Chan_delay ~base:(rtt t * 4)
  else base

let set_notify t hook = t.notify <- hook

(* Each enqueued entry raises the doorbell: the notify hook when one is
   installed (the fabric's poller pool), else the wake of a server parked
   in [serve_next].  Either way the woken side polls, and the doorbell is
   at-least-once: an empty poll is a no-op. *)
let kick t =
  match t.notify with
  | Some f -> f ()
  | None -> (
      match t.server_wake with
      | Some wake ->
          t.server_wake <- None;
          wake ()
      | None -> ())

(* One attempt of a call, and the retries after it.  A top-level function
   rather than a closure over the call, so a parked caller's stack refers
   to the channel, the request and the shared [done_] flag directly. *)
let rec attempt t req done_ n backoff =
  Metrics.inc t.c_calls ();
  Machine.charge t.machine (signal_cost t);
  let outcome =
    Exec.block t.machine.Machine.exec
      ~reason:(Mv_util.Intern.get reason_call req.req_kind)
      (fun ~now:_ ~wake ->
        let entry =
          {
            e_req = req;
            e_wake = wake;
            e_live = true;
            e_done = done_;
            e_corrupt = Fault_plan.fire t.faults Fault_plan.Chan_corrupt req.req_kind;
          }
        in
        if not (Fault_plan.fire t.faults Fault_plan.Chan_drop req.req_kind) then begin
          Queue.add entry t.queue;
          kick t;
          if Fault_plan.fire t.faults Fault_plan.Chan_duplicate req.req_kind then begin
            Queue.add entry t.queue;
            kick t
          end
        end;
        if t.resilient then
          Exec.after t.machine.Machine.exec (timeout_rtts * rtt t) (fun () ->
              if entry.e_live then begin
                entry.e_live <- false;
                wake Timeout
              end))
  in
  match outcome with
  | Done -> ()
  | Timeout ->
      Metrics.inc t.c_timeouts ();
      if n >= max_retries then begin
        Machine.emit t.machine (Trace.Channel_exhausted { retries = n; kind = req.req_kind });
        raise (Channel_failure req.req_kind)
      end
      else begin
        Metrics.inc t.c_retries ();
        Machine.emit t.machine
          (Trace.Channel_retry { attempt = n + 1; backoff; kind = req.req_kind });
        (* Exponential backoff, charged to the caller through the
           ordinary cycle model. *)
        Machine.charge t.machine backoff;
        attempt t req done_ (n + 1) (backoff * 2)
      end

let call t req =
  if t.failed then raise (Channel_failure req.req_kind);
  attempt t req (ref false) 0 (rtt t)

let post t req =
  (* Posts carry control messages (hrt-exit, shutdown) whose loss is not
     recoverable by a caller-side timeout, so they are never dropped,
     duplicated or corrupted; their delivery may still be delayed. *)
  Metrics.inc t.c_calls ();
  Queue.add
    { e_req = req; e_wake = posted; e_live = false; e_done = ref false; e_corrupt = false }
    t.queue;
  kick t

let complete t =
  match t.serving with
  | None -> raise (Protocol_error "Event_channel.complete: nothing being served")
  | Some e ->
      t.serving <- None;
      e.e_done := true;
      if e.e_wake != posted then begin
        Machine.charge t.machine (signal_cost t);
        (* The reply leg is the rest of the RTT, so an odd RTT loses no
           cycle to the halving. *)
        Exec.after t.machine.Machine.exec (rtt t - one_way t) (fun () ->
            if e.e_live then begin
              e.e_live <- false;
              e.e_wake Done
            end)
      end

(* The one server-side take: every entry leaves the queue here.  The
   server pays the one-way delivery latency (plus any injected delay) as
   it picks the entry up, whether it was polling or was woken for it. *)
let rec poll_next t =
  match Queue.take_opt t.queue with
  | None -> None
  | Some e ->
      t.serving <- Some e;
      Machine.charge t.machine (deliver_latency t e.e_req.req_kind);
      if e.e_corrupt then begin
        (* The shared-page payload fails validation: discard; the caller's
           timeout-and-retry recovers the request. *)
        t.serving <- None;
        Metrics.inc t.c_protocol_errors ();
        raise (Protocol_error ("corrupt request discarded: " ^ e.e_req.req_kind))
      end
      else if t.dedup && !(e.e_done) then begin
        (* Duplicate or retried delivery of an already-executed request:
           acknowledge without re-running the payload. *)
        complete t;
        poll_next t
      end
      else Some e.e_req

(* A lone server parks while the queue is empty; [kick] wakes it to poll. *)
let rec serve_next t =
  match poll_next t with
  | Some req -> req
  | None ->
      Exec.block t.machine.Machine.exec ~reason:"evtchan:serve" (fun ~now:_ ~wake ->
          t.server_wake <- Some wake);
      serve_next t

let serve_loop t ~on_request =
  let rec go () =
    (match serve_next t with
    | req ->
        on_request req;
        complete t
    | exception Protocol_error msg ->
        Machine.emit t.machine (Trace.Server_survived { msg }));
    go ()
  in
  go ()

let degrade_to_async t =
  if t.ckind = Sync then begin
    t.ckind <- Async;
    Metrics.inc t.c_degraded ();
    Machine.emit t.machine Trace.Degrade_sync_to_async
  end

let restore_sync t =
  (* The inverse flip, for the fabric's load-shedding watchdog: only a
     live channel currently running Async may be promoted back, and the
     caller is responsible for only restoring channels it degraded (a
     fallback after Channel_failure must stay Async). *)
  if t.ckind = Async && not t.failed then begin
    t.ckind <- Sync;
    Machine.emit t.machine Trace.Restore_async_to_sync
  end

let mark_failed t =
  if not t.failed then begin
    t.failed <- true;
    Machine.emit t.machine Trace.Channel_marked_failed
  end

let calls t = Metrics.counter_value t.c_calls
let timeouts t = Metrics.counter_value t.c_timeouts
let retries t = Metrics.counter_value t.c_retries
let failed t = t.failed
