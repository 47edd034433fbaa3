module Machine = Mv_engine.Machine
module Exec = Mv_engine.Exec
module Sim = Mv_engine.Sim
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

(* A message on the channel.  [e_done] is shared by every entry of one
   logical call (retries, injected duplicates): the payload runs exactly
   once, re-deliveries only re-acknowledge.  [e_complete] wakes the caller
   attempt that sent this entry; it self-guards so that a completion and a
   timeout racing for the same attempt consume the waker at most once. *)
type entry = {
  e_req : request;
  e_complete : (unit -> unit) option;  (* [None] for posted requests *)
  e_done : bool ref;
  e_corrupt : bool;
}

type resilience = { r_timeout : int; r_max_retries : int; r_backoff : int }

type t = {
  machine : Machine.t;
  mutable ckind : kind;
  mutable ros_core : int;  (* server-side core; retargeted by core lending *)
  mutable hrt_core : int;  (* HRT-side core; retargeted by core lending *)
  faults : Fault_plan.t;
  dedup : bool;
  mutable res : resilience option;
  queue : entry Queue.t;
  mutable serving : entry option;
  mutable server_wake : (entry -> unit) option;
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

let create ?(faults = Fault_plan.none) ?(dedup = true) machine ~kind ~ros_core ~hrt_core =
  let res =
    (* Resilience (attempt timeout + bounded retry) arms only under a
       fault plan: the default channel is byte-identical to the seed. *)
    if Fault_plan.enabled faults then
      let rtt = rtt_of machine ~kind ~ros_core ~hrt_core in
      Some { r_timeout = 64 * rtt; r_max_retries = 6; r_backoff = rtt }
    else None
  in
  let counter = Metrics.counter machine.Machine.metrics ~ns:"event_channel" in
  {
    machine;
    ckind = kind;
    ros_core;
    hrt_core;
    faults;
    dedup;
    res;
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
  (* Core lending moved an end of the channel; the RTT follows the new
     socket distance automatically ([rtt] recomputes per call), but armed
     resilience timeouts were sized for the old distance and re-arm. *)
  (match ros_core with Some c -> t.ros_core <- c | None -> ());
  (match hrt_core with Some c -> t.hrt_core <- c | None -> ());
  match t.res with
  | Some r ->
      let rtt = rtt t in
      t.res <- Some { r with r_timeout = 64 * rtt; r_backoff = rtt }
  | None -> ()

let signal_cost t =
  (* Raising the event: a hypercall for the async (interrupt-injected)
     channel; a shared-memory store for the sync channel. *)
  match t.ckind with
  | Async -> t.machine.Machine.costs.Costs.hypercall
  | Sync -> 20

let sched_at t time fn =
  let sim = Exec.sim t.machine.Machine.exec in
  Sim.schedule_at sim (max time (Sim.now sim)) fn

(* Extra in-flight latency when a delay fault fires on this message. *)
let deliver_latency t req_kind =
  let base = one_way t in
  if Fault_plan.fire t.faults Fault_plan.Chan_delay req_kind then
    base + Fault_plan.extra_delay t.faults Fault_plan.Chan_delay ~base:(rtt t * 4)
  else base

(* If the server is parked and work is queued, deliver the head request
   after the one-way propagation delay. *)
let try_deliver t =
  match t.server_wake with
  | Some swake when not (Queue.is_empty t.queue) ->
      t.server_wake <- None;
      let e = Queue.pop t.queue in
      t.serving <- Some e;
      sched_at t
        (Exec.local_now t.machine.Machine.exec + deliver_latency t e.e_req.req_kind)
        (fun () -> swake e)
  | Some _ | None -> ()

let set_notify t hook = t.notify <- hook

(* Each enqueued entry raises the doorbell: either the externally-installed
   notify hook (the fabric's poller pool) or the classic parked-server
   delivery.  Notify is at-least-once — consumers must treat an empty poll
   as a no-op. *)
let kick t =
  match t.notify with Some f -> f () | None -> try_deliver t

let call t req =
  if t.failed then raise (Channel_failure req.req_kind);
  let done_ = ref false in
  let rec attempt n backoff =
    Metrics.inc t.c_calls ();
    Machine.charge t.machine (signal_cost t);
    let outcome =
      Exec.block t.machine.Machine.exec
        ~reason:(Mv_util.Intern.get reason_call req.req_kind)
        (fun ~now ~wake ->
          let live = ref true in
          let entry =
            {
              e_req = req;
              e_complete =
                Some
                  (fun () ->
                    if !live then begin
                      live := false;
                      wake `Done
                    end);
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
          match t.res with
          | Some r ->
              Sim.schedule_at
                (Exec.sim t.machine.Machine.exec)
                (now + r.r_timeout)
                (fun () ->
                  if !live then begin
                    live := false;
                    wake `Timeout
                  end)
          | None -> ())
    in
    match outcome with
    | `Done -> ()
    | `Timeout -> (
        Metrics.inc t.c_timeouts ();
        match t.res with
        | None -> assert false
        | Some r ->
            if n >= r.r_max_retries then begin
              Machine.emit t.machine
                (Trace.Channel_exhausted { retries = n; kind = req.req_kind });
              raise (Channel_failure req.req_kind)
            end
            else begin
              Metrics.inc t.c_retries ();
              Machine.emit t.machine
                (Trace.Channel_retry { attempt = n + 1; backoff; kind = req.req_kind });
              (* Exponential backoff, charged to the caller through the
                 ordinary cycle model. *)
              Machine.charge t.machine backoff;
              attempt (n + 1) (backoff * 2)
            end)
  in
  attempt 0 (match t.res with Some r -> r.r_backoff | None -> rtt t)

let post t req =
  (* Posts carry control messages (hrt-exit, shutdown) whose loss is not
     recoverable by a caller-side timeout, so they are not fault sites. *)
  Metrics.inc t.c_calls ();
  Queue.add { e_req = req; e_complete = None; e_done = ref false; e_corrupt = false } t.queue;
  kick t

let complete t =
  match t.serving with
  | None -> raise (Protocol_error "Event_channel.complete: nothing being served")
  | Some e -> (
      t.serving <- None;
      e.e_done := true;
      match e.e_complete with
      | None -> ()  (* posted request: fire-and-forget *)
      | Some fire_wake ->
          Machine.charge t.machine (signal_cost t);
          sched_at t (Exec.local_now t.machine.Machine.exec + one_way t) fire_wake)

let rec serve_next t =
  let accept e =
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
      serve_next t
    end
    else e.e_req
  in
  match Queue.take_opt t.queue with
  | Some e ->
      t.serving <- Some e;
      (* The request already sat in the shared page; pay the poll/notice
         latency. *)
      Machine.charge t.machine (one_way t);
      accept e
  | None ->
      let e =
        Exec.block t.machine.Machine.exec ~reason:"evtchan:serve" (fun ~now:_ ~wake ->
            t.server_wake <- Some wake)
      in
      accept e

(* Non-blocking server-side take, for poller-pool servers that multiplex
   several channels and must not park on any single one.  Charges the same
   poll/notice latency as the queue-pop path of [serve_next] (including
   injected delivery delay) so single-channel timing is unchanged. *)
let rec poll_next t =
  match Queue.take_opt t.queue with
  | None -> None
  | Some e ->
      t.serving <- Some e;
      Machine.charge t.machine (deliver_latency t e.e_req.req_kind);
      if e.e_corrupt then begin
        t.serving <- None;
        Metrics.inc t.c_protocol_errors ();
        raise (Protocol_error ("corrupt request discarded: " ^ e.e_req.req_kind))
      end
      else if t.dedup && !(e.e_done) then begin
        complete t;
        poll_next t
      end
      else Some e.e_req

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
    (* Timeout and backoff were sized for sync latencies; re-arm for the
       (much slower) hypercall channel. *)
    (match t.res with
    | Some r ->
        let rtt = rtt t in
        t.res <- Some { r with r_timeout = 64 * rtt; r_backoff = rtt }
    | None -> ());
    Machine.emit t.machine Trace.Degrade_sync_to_async
  end

let restore_sync t =
  (* The inverse flip, for the fabric's load-shedding watchdog: only a
     live channel currently running Async may be promoted back, and the
     caller is responsible for only restoring channels it degraded (a
     fallback after Channel_failure must stay Async). *)
  if t.ckind = Async && not t.failed then begin
    t.ckind <- Sync;
    (match t.res with
    | Some r ->
        let rtt = rtt t in
        t.res <- Some { r with r_timeout = 64 * rtt; r_backoff = rtt }
    | None -> ());
    Machine.emit t.machine Trace.Restore_async_to_sync
  end

let mark_failed t =
  if not t.failed then begin
    t.failed <- true;
    Machine.emit t.machine Trace.Channel_marked_failed
  end

let reset_server t =
  (* A dead server's parked waker and half-served entry are both stale;
     the respawned server re-enters [serve_next] against a clean slate.
     Unserved entries stay queued, an unacknowledged-but-executed entry is
     recovered by its caller's retry hitting the [e_done] dedup path. *)
  t.server_wake <- None;
  t.serving <- None

let queue_depth t = Queue.length t.queue
let calls t = Metrics.counter_value t.c_calls
let timeouts t = Metrics.counter_value t.c_timeouts
let retries t = Metrics.counter_value t.c_retries
let failed t = t.failed
