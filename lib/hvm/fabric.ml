module Machine = Mv_engine.Machine
module Exec = Mv_engine.Exec
module Sim = Mv_engine.Sim
module Trace = Mv_engine.Trace
module Tracer = Mv_obs.Tracer
module Fault_plan = Mv_faults.Fault_plan
module Metrics = Mv_obs.Metrics
open Mv_hw

(* Hot-path labels are [prefix ^ kind] over a handful of request kinds;
   interning keeps per-call block/span setup free of string allocation. *)
let reason_ride = Mv_util.Intern.create "fabric:ride:"
let reason_admit = Mv_util.Intern.create "fabric:admit:"
let span_fwd = Mv_util.Intern.create "fwd:"

(* Ring-slot protocol: a rider's request is Pending until either a server
   drain takes it (Pending -> Taken -> Done) or the rider's own timeout
   reclaims it (Pending -> Claimed) to re-dispatch through the transport.
   Both transitions read-check-write with no cycle charge in between, so
   they are host-atomic and at most one of them ever wins: the payload
   runs exactly once. *)
type slot_state = Slot_pending | Slot_claimed | Slot_taken | Slot_done

type ride_outcome = Acked | Timed_out

(* [sl_wake] is the rider's waker ([no_rider] until it first parks), and
   [sl_live] says its current registration is still waiting: the ack and
   the timeout both clear it before they wake, so whichever comes first
   consumes the registration.  A re-wait after a timeout on a Taken slot
   re-arms the same flag, which is safe because that timeout was the
   earlier registration's only pending event — the ack is scheduled after
   the re-check, by the drain that finishes the slot.  A parked rider thus
   holds only its slot; the ack's event closure is built by the drain that
   sends it. *)
type slot = {
  sl_req : Event_channel.request;
  mutable sl_state : slot_state;
  mutable sl_wake : ride_outcome -> unit;
  mutable sl_live : bool;
}

let no_rider (_ : ride_outcome) = ()

type endpoint = {
  ep_name : string;
  ep_batch_label : string;  (* "batch:<name>", precomputed off the hot path *)
  ep_serve_label : string;  (* "serve:<name>", likewise *)
  ep_chan : Event_channel.t;  (* its server core routes the endpoint to a poller group *)
  ep_ring : slot Queue.t;  (* the shared-page batching ring *)
  mutable ep_inflight : bool;  (* a leader call is mid-flight *)
  mutable ep_npending : int;  (* Pending slots awaiting a drain *)
  mutable ep_busy : bool;  (* a poller owns this channel's server side *)
  mutable ep_announced : bool;  (* a run-queue token for this endpoint is outstanding *)
  mutable ep_attentive : bool;  (* the owning poller is busy-polling the ring *)
  (* --- admission control (all dormant while the fabric has no policy) --- *)
  mutable ep_bucket : Mv_util.Token_bucket.t option;  (* per-group rate limit *)
  ep_waiters : (unit -> unit) Queue.t;  (* FIFO admission queue (Block policy) *)
  mutable ep_nwaiters : int;
  mutable ep_granted : int;  (* admissions handed to woken waiters, not yet ring slots *)
  mutable ep_refill_armed : bool;  (* a token-refill timer is outstanding *)
}

type local_entry = { le_promote_after : int; le_cost : int }

(* --- overload model ------------------------------------------------ *)

type overload_policy = Shed | Block

type admission = {
  ad_policy : overload_policy;
  ad_ring_capacity : int;  (* max Pending slots per endpoint ring *)
  ad_queue_capacity : int;  (* max blocked callers per endpoint (Block) *)
  ad_rate : float;  (* token-bucket refill, tokens per cycle per endpoint *)
  ad_burst : int;  (* token-bucket ceiling *)
  ad_shed_retries : int;  (* stub backoff retries before [offer] gives up *)
}

type overload = { ov_kind : string; ov_endpoint : string; ov_sheds : int }

(* --- poller groups -------------------------------------------------- *)

(* The shared poller pool is a set of groups, each with its own run queue,
   parked set and cores.  [Spread] placement keeps one global group;
   [Affine] placement shards the pool by topology so doorbells are served
   by a poller on the endpoint's own socket and wake tokens never cross
   the interconnect. *)
type placement = Spread | Affine

type pgroup = {
  pg_socket : int;  (* socket served, -1 for the global group *)
  mutable pg_cores : int list;  (* spawn cores; lending may swap members *)
  pg_runq : endpoint Queue.t;  (* doorbells awaiting a poller of this group *)
  pg_parked : (Exec.thread * (unit -> unit)) Queue.t;
  mutable pg_pollers : Exec.thread list;
  mutable pg_next_poller : int;  (* round-robin cursor over [pg_cores] *)
}

let make_pgroup ?(socket = -1) cores =
  {
    pg_socket = socket;
    pg_cores = cores;
    pg_runq = Queue.create ();
    pg_parked = Queue.create ();
    pg_pollers = [];
    pg_next_poller = 0;
  }

type t = {
  fb_machine : Machine.t;
  fb_kind : Event_channel.kind;
  fb_faults : Fault_plan.t;
  fb_heartbeat : int;
  mutable fb_groups : pgroup array;  (* poller groups; one global group by default *)
  mutable fb_placement : placement;
  mutable fb_spawn : (name:string -> core:int -> (unit -> unit) -> Exec.thread) option;
  mutable fb_next_poller : int;  (* global poller-name counter *)
  mutable fb_stop : bool;
  mutable fb_wakes_pending : int;  (* poller wakeups scheduled but not yet run *)
  mutable fb_endpoints : endpoint list;
  fb_locals : (string, local_entry) Hashtbl.t;
  fb_promo : (string * string, int ref) Hashtbl.t;  (* (kind, key) -> hits *)
  mutable fb_admission : admission option;
  mutable fb_attentive_polls : int;  (* doorbell-suppression window width *)
  mutable fb_shed_mode : bool;
  mutable fb_shed_flipped : endpoint list;  (* endpoints the watchdog flipped Sync->Async *)
  mutable fb_monitor_armed : bool;
  (* Metric handles resolved once and cached: the watchdog gauges and the
     per-kind crossing-latency recorders would otherwise re-walk the
     string-keyed registry index on every heartbeat / traced call. *)
  mutable fb_shed_gauges : (Metrics.gauge * Metrics.gauge * Metrics.gauge) option;
  fb_crossing_lat : (string, Metrics.latency) Hashtbl.t;
  (* The counters are slots in the machine's metrics registry (namespace
     "fabric"), resolved once in [create] and incremented in place. *)
  c_calls : Metrics.counter;
  c_transport : Metrics.counter;
  c_riders : Metrics.counter;
  c_ride_timeouts : Metrics.counter;
  c_drains : Metrics.counter;
  c_drained : Metrics.counter;
  c_local_hits : Metrics.counter;
  c_local_misses : Metrics.counter;
  c_errno_retries : Metrics.counter;
  c_reroutes : Metrics.counter;
  c_fallbacks : Metrics.counter;
  c_respawns : Metrics.counter;
  c_admitted : Metrics.counter;
  c_sheds : Metrics.counter;  (* typed Overload replies returned to the stub *)
  c_shed_retries : Metrics.counter;  (* stub backoff retries after an Overload *)
  c_blocked : Metrics.counter;  (* callers parked in an admission queue *)
  c_queue_rejects : Metrics.counter;  (* admission-queue overflow sheds *)
  c_shed_flips : Metrics.counter;  (* shed-mode entries *)
  c_shed_restores : Metrics.counter;  (* shed-mode exits *)
  g_ring_hw : Metrics.gauge;  (* high-water mark of any endpoint's Pending slots *)
  c_chan_retries : Metrics.counter;  (* the endpoint channels' event_channel/retries *)
}

(* Doorbell-suppression window defaults; see the attentive-poll comment
   above [serve_endpoint].  The watchdog widens the window by
   [shed_attentive_widening] while in shed mode. *)
let default_attentive_polls = 4
let shed_attentive_widening = 4

(* Load-shedding hysteresis, as fractions of ring capacity: the watchdog
   enters shed mode at [high_water] occupancy and leaves it at
   [low_water]. *)
let high_water = 0.75
let low_water = 0.25

let create ?(faults = Fault_plan.none) machine ~kind =
  let m = machine.Machine.metrics in
  let counter = Metrics.counter m ~ns:"fabric" in
  {
    fb_machine = machine;
    fb_kind = kind;
    fb_faults = faults;
    (* Watchdog period: a few async round trips — long enough that a
       healthy poller always beats it, short enough to respawn quickly. *)
    fb_heartbeat = 4 * machine.Machine.costs.Costs.async_channel_rtt;
    fb_groups = [| make_pgroup [] |];
    fb_placement = Spread;
    fb_spawn = None;
    fb_next_poller = 0;
    fb_stop = false;
    fb_wakes_pending = 0;
    fb_endpoints = [];
    fb_locals = Hashtbl.create 8;
    fb_promo = Hashtbl.create 32;
    fb_admission = None;
    fb_attentive_polls = default_attentive_polls;
    fb_shed_mode = false;
    fb_shed_flipped = [];
    fb_monitor_armed = false;
    fb_shed_gauges = None;
    fb_crossing_lat = Hashtbl.create 8;
    c_calls = counter "calls";
    c_transport = counter "transport";
    c_riders = counter "riders";
    c_ride_timeouts = counter "ride_timeouts";
    c_drains = counter "drains";
    c_drained = counter "drained";
    c_local_hits = counter "local_hits";
    c_local_misses = counter "local_misses";
    c_errno_retries = counter "errno_retries";
    c_reroutes = counter "reroutes";
    c_fallbacks = counter "fallbacks";
    c_respawns = counter "respawns";
    c_admitted = counter "admitted";
    c_sheds = counter "sheds";
    c_shed_retries = counter "shed_retries";
    c_blocked = counter "admission_blocked";
    c_queue_rejects = counter "queue_rejects";
    c_shed_flips = counter "shed_flips";
    c_shed_restores = counter "shed_restores";
    g_ring_hw = Metrics.gauge m ~ns:"fabric" "ring_occupancy_hw";
    c_chan_retries = Metrics.counter m ~ns:"event_channel" "retries";
  }

let resilient t = Fault_plan.enabled t.fb_faults
let channel ep = ep.ep_chan

(* Ring costs: shared-memory stores and flag polls, a fraction of the
   sync-channel round trip (both live in the shared data page). *)
let ring_cost t = t.fb_machine.Machine.costs.Costs.sync_channel_same_socket / 4
let ack_latency t = t.fb_machine.Machine.costs.Costs.sync_channel_same_socket / 2

let sched_now t fn =
  let exec = t.fb_machine.Machine.exec in
  let sim = Exec.sim exec in
  Sim.schedule_at sim (max (Exec.local_now exec) (Sim.now sim)) fn

let sched_after t delay fn =
  let exec = t.fb_machine.Machine.exec in
  let sim = Exec.sim exec in
  Sim.schedule_at sim (max (Exec.local_now exec) (Sim.now sim) + delay) fn

(* --- admission control --------------------------------------------- *)

let bucket_of t ep ad =
  match ep.ep_bucket with
  | Some b -> b
  | None ->
      let b =
        Mv_util.Token_bucket.create ~rate:ad.ad_rate ~burst:ad.ad_burst
          ~now:(Machine.now t.fb_machine)
      in
      ep.ep_bucket <- Some b;
      b

(* Admit parked callers from the endpoint's FIFO admission queue while
   ring space and a token are both available.  The waker consumes the
   token and reserves the ring slot ([ep_granted]) on the waiter's behalf,
   so the wake is never spurious and admission order is exactly queue
   order.  When the queue is blocked on the token bucket alone, arm one
   timer for the refill instant — every other unblocking edge (a drain
   freeing ring slots, a slot reclaim) re-enters here directly, so no
   waiter can be lost. *)
let rec pump_admission t ep =
  match t.fb_admission with
  | None -> ()
  | Some ad ->
      let rec go () =
        if ep.ep_nwaiters > 0 && ep.ep_npending + ep.ep_granted < ad.ad_ring_capacity
        then begin
          let b = bucket_of t ep ad in
          let now = Machine.now t.fb_machine in
          if Mv_util.Token_bucket.take b ~now then (
            match Queue.take_opt ep.ep_waiters with
            | Some wake ->
                ep.ep_nwaiters <- ep.ep_nwaiters - 1;
                ep.ep_granted <- ep.ep_granted + 1;
                sched_now t wake;
                go ()
            | None -> ())
          else if not ep.ep_refill_armed then begin
            ep.ep_refill_armed <- true;
            let wait = max 1 (Mv_util.Token_bucket.next_available b ~now) in
            sched_after t wait (fun () ->
                ep.ep_refill_armed <- false;
                pump_admission t ep)
          end
        end
      in
      go ()

(* --- batching ring drain (shared between servers and leaders) --- *)

(* Runs server-side (in whichever context executes the drain): service
   every Pending slot, ack riders through the shared page. *)
let drain_ring t ep =
  if not (Queue.is_empty ep.ep_ring) then begin
    Metrics.inc t.c_drains ();
    (* The batch span covers every slot this drain services: the leader
       and its riders share it (their per-crossing service segments are
       measured inside). *)
    Tracer.with_span t.fb_machine.Machine.obs ~name:ep.ep_batch_label ~cat:"fabric"
      (fun () ->
        let before = Metrics.counter_value t.c_drained in
        let rec go () =
          match Queue.take_opt ep.ep_ring with
          | None -> ()
          | Some slot ->
              (match slot.sl_state with
              | Slot_claimed | Slot_done | Slot_taken -> ()  (* reclaimed or stale *)
              | Slot_pending ->
                  slot.sl_state <- Slot_taken;
                  (* Ring scan + payload fetch from the shared page. *)
                  Machine.charge t.fb_machine (ring_cost t);
                  slot.sl_req.Event_channel.req_run ();
                  slot.sl_state <- Slot_done;
                  ep.ep_npending <- ep.ep_npending - 1;
                  Metrics.inc t.c_drained ();
                  (* Completion flag store + the rider's poll notice, for a
                     rider that has parked on the slot. *)
                  if slot.sl_wake != no_rider then
                    sched_after t (ack_latency t) (fun () ->
                        if slot.sl_live then begin
                          slot.sl_live <- false;
                          slot.sl_wake Acked
                        end));
              go ()
        in
        go ();
        if Tracer.enabled t.fb_machine.Machine.obs then
          Tracer.annotate t.fb_machine.Machine.obs "drained"
            (string_of_int (Metrics.counter_value t.c_drained - before)));
    (* Ring slots were freed: admit parked callers in FIFO order. *)
    pump_admission t ep
  end

(* --- poller pool (the ROS side) --- *)

(* The poller group an endpoint's doorbell routes to, from its channel's
   current server core: the one global group under [Spread], that core's
   socket group under [Affine]. *)
let group_of t ep =
  match t.fb_placement with
  | Spread -> t.fb_groups.(0)
  | Affine -> (
      let s = Topology.socket_of t.fb_machine.Machine.topo (Event_channel.ros_core ep.ep_chan) in
      match Array.find_opt (fun pg -> pg.pg_socket = s) t.fb_groups with
      | Some pg -> pg
      | None -> t.fb_groups.(0))

let rec wake_poller t pg =
  match Queue.take_opt pg.pg_parked with
  | None -> ()  (* every poller is busy; they re-check the runq before parking *)
  | Some (th, wake) ->
      if Exec.state t.fb_machine.Machine.exec th = Exec.Finished then
        (* Killed while parked: its waker is stale, try the next one. *)
        wake_poller t pg
      else begin
        (* Count scheduled-but-not-yet-run wakeups so the pool watchdog can
           tell a stranded token (its wakeup died with a killed poller) from
           one that is already being picked up. *)
        t.fb_wakes_pending <- t.fb_wakes_pending + 1;
        sched_now t (fun () ->
            t.fb_wakes_pending <- t.fb_wakes_pending - 1;
            wake ())
      end

(* How many empty ring polls an attentive server tolerates before parking
   again ([fb_attentive_polls]), and therefore how long doorbell
   suppression outlives the doorbell: a burst of callers pays one
   transport round trip total, then rides the shared page at store+poll
   cost.  The default window is 4 polls; the load-shedding watchdog widens
   it while in shed mode so saturated endpoints are served exit-lessly,
   and restores it on drain. *)

let serve_endpoint t ep =
  (* One poller at a time may own a channel's server side ([serving] is
     per-channel state); losers drop the token — the owner drains until
     both the channel and the ring are empty, so nothing is lost.  The
     final empty scan, the flag clears and the exit happen in one
     host-atomic segment, so a request enqueued after them always raises
     a fresh doorbell. *)
  if not ep.ep_busy then begin
    ep.ep_busy <- true;
    Fun.protect
      ~finally:(fun () ->
        ep.ep_busy <- false;
        ep.ep_attentive <- false)
      (fun () ->
        Tracer.with_span t.fb_machine.Machine.obs ~name:ep.ep_serve_label
          ~cat:"ros"
        @@ fun () ->
        let rec drain served =
          match Event_channel.poll_next ep.ep_chan with
          | None ->
              let before = Metrics.counter_value t.c_drained in
              drain_ring t ep;
              if Metrics.counter_value t.c_drained > before then drain true else served
          | Some req ->
              req.Event_channel.req_run ();
              Event_channel.complete ep.ep_chan;
              drain true
          | exception Event_channel.Protocol_error msg ->
              Machine.emit t.fb_machine (Trace.Server_survived { msg });
              drain served
        in
        (* The first pass answers the doorbell that woke us.  Afterwards
           stay attentive: keep polling the shared ring for a few beats so
           follow-up requests ride instead of paying a fresh doorbell and
           transport pickup ("Look Mum, no VM Exits!"-style exit-less
           servicing on the partitioned server side). *)
        let rec attentive misses =
          if misses < t.fb_attentive_polls && not t.fb_stop then begin
            Exec.sleep t.fb_machine.Machine.exec (ack_latency t);
            if drain false then attentive 0 else attentive (misses + 1)
          end
        in
        if drain false then begin
          ep.ep_attentive <- true;
          attentive 0
        end)
  end

let poller_loop t pg () =
  let exec = t.fb_machine.Machine.exec in
  let me = Exec.self exec in
  let rec go () =
    if not t.fb_stop then
      match Queue.take_opt pg.pg_runq with
      | Some ep ->
          (* Clearing the token flag before serving keeps the doorbell
             live: entries enqueued while we drain re-announce themselves
             (and the announce-then-check order below makes the last one
             visible to whoever serves). *)
          ep.ep_announced <- false;
          serve_endpoint t ep;
          go ()
      | None ->
          Exec.block exec ~reason:"fabric:poll" (fun ~now:_ ~wake ->
              Queue.add (me, wake) pg.pg_parked);
          go ()
  in
  go ()

let spawn_poller t pg =
  match t.fb_spawn with
  | None -> failwith "Fabric: poller pool not started"
  | Some spawn ->
      let cores = match pg.pg_cores with [] -> [ 0 ] | cs -> cs in
      let core = List.nth cores (pg.pg_next_poller mod List.length cores) in
      let name = Printf.sprintf "fabric/poller-%d" t.fb_next_poller in
      t.fb_next_poller <- t.fb_next_poller + 1;
      pg.pg_next_poller <- pg.pg_next_poller + 1;
      spawn ~name ~core (poller_loop t pg)

(* Pool watchdog (armed only under a fault plan): respawn dead pollers one
   beat after they die — recovery mirrors the per-group partner watchdog
   it replaces — and drive the Partner_kill injection site.  A poller may
   only be killed while parked idle, so exactly-once payload execution
   survives the kill. *)
let rec pool_monitor t () =
  if not t.fb_stop then begin
    let exec = t.fb_machine.Machine.exec in
    Array.iter
      (fun pg ->
        pg.pg_pollers <-
          List.map
            (fun th ->
              if Exec.state exec th = Exec.Finished then begin
                Metrics.inc t.c_respawns ();
                Machine.emit t.fb_machine (Trace.Watchdog_respawn { was = Exec.name th });
                spawn_poller t pg
              end
              else th)
            pg.pg_pollers;
        List.iter
          (fun th ->
            match Exec.state exec th with
            | Exec.Blocked r
              when r = "fabric:poll"
                   && Fault_plan.fire t.fb_faults Fault_plan.Partner_kill (Exec.name th) ->
                Exec.kill exec th
            | _ -> ())
          pg.pg_pollers;
        (* Tokens whose wakeup died with a killed poller are re-announced.
           The pending-wake guard keeps this from firing on a token that is
           already being picked up — under a never-firing plan this branch is
           unreachable, preserving schedule neutrality. *)
        if (not (Queue.is_empty pg.pg_runq)) && t.fb_wakes_pending = 0 then
          wake_poller t pg)
      t.fb_groups;
    Sim.schedule_after (Exec.sim exec) t.fb_heartbeat (pool_monitor t)
  end

let start_pool t ~spawn ~cores ?(placement = Spread) () =
  let total = max 2 (List.length cores) in
  t.fb_spawn <- Some spawn;
  t.fb_placement <- placement;
  let groups =
    match placement with
    | Spread -> [| make_pgroup cores |]
    | Affine ->
        (* One group per socket that owns at least one pool core, in
           ascending socket order — the routing is a pure function of the
           topology. *)
        let topo = t.fb_machine.Machine.topo in
        let sockets =
          List.sort_uniq compare (List.map (Topology.socket_of topo) cores)
        in
        sockets
        |> List.map (fun s ->
               make_pgroup ~socket:s
                 (List.filter (fun c -> Topology.socket_of topo c = s) cores))
        |> Array.of_list
  in
  (* Endpoints may predate the pool: carry any outstanding doorbell tokens
     into the run queues of the groups they now route to. *)
  let stale_tokens =
    Array.to_list t.fb_groups
    |> List.concat_map (fun pg ->
           List.rev (Queue.fold (fun acc ep -> ep :: acc) [] pg.pg_runq))
  in
  t.fb_groups <- groups;
  List.iter (fun ep -> Queue.add ep (group_of t ep).pg_runq) stale_tokens;
  (* Each group's poller count follows its share of the pool cores (the
     global group owns them all, so this is [total] there): a group never
     gets more pollers than it can spread over its own cores, which would
     only stack fibers on the busiest socket. *)
  let ncores = max 1 (List.length cores) in
  Array.iter
    (fun pg ->
      let share = max 1 (total * List.length pg.pg_cores / ncores) in
      for _ = 1 to share do
        pg.pg_pollers <- spawn_poller t pg :: pg.pg_pollers
      done)
    groups;
  if resilient t then
    Sim.schedule_after (Exec.sim t.fb_machine.Machine.exec) t.fb_heartbeat (pool_monitor t)

let endpoint t ~name ~ros_core ~hrt_core =
  let ch =
    Event_channel.create ~faults:t.fb_faults t.fb_machine ~kind:t.fb_kind ~ros_core
      ~hrt_core
  in
  let ep =
    {
      ep_name = name;
      ep_batch_label = "batch:" ^ name;
      ep_serve_label = "serve:" ^ name;
      ep_chan = ch;
      ep_ring = Queue.create ();
      ep_inflight = false;
      ep_npending = 0;
      ep_busy = false;
      ep_announced = false;
      ep_attentive = false;
      ep_bucket = None;
      ep_waiters = Queue.create ();
      ep_nwaiters = 0;
      ep_granted = 0;
      ep_refill_armed = false;
    }
  in
  (* The channel doorbell becomes a fabric run-queue token, suppressed
     while one is already outstanding for this endpoint: the token's owner
     drains the channel until empty, so one token covers any number of
     enqueued entries (and the run queue never accumulates stale tokens). *)
  Event_channel.set_notify ch
    (Some
       (fun () ->
         if not ep.ep_announced then begin
           ep.ep_announced <- true;
           let pg = group_of t ep in
           Queue.add ep pg.pg_runq;
           wake_poller t pg
         end));
  t.fb_endpoints <- ep :: t.fb_endpoints;
  ep

(* Core lending moved [core] out of its partition: every endpoint binding
   that referenced it re-routes.  A server-side (ROS) binding follows
   [ros_to] — the channel's server core moves, and poller-group routing
   follows it — and the poller pool's spawn cores drop the lent core so a
   watchdog respawn never lands on it.  An HRT-side binding follows
   [hrt_to].  In-flight ring slots and queued channel entries carry over
   untouched (their wakes are thread-homed and the executor re-homed
   those), so no request or wakeup is lost across the move. *)
let rehome_core t ~core ?ros_to ?hrt_to () =
  let rerouted = ref 0 in
  (match ros_to with
  | None -> ()
  | Some r ->
      Array.iter
        (fun pg ->
          if List.mem core pg.pg_cores then begin
            let cs = List.filter (fun c -> c <> core) pg.pg_cores in
            pg.pg_cores <- (if List.mem r cs then cs else cs @ [ r ])
          end)
        t.fb_groups);
  List.iter
    (fun ep ->
      (match ros_to with
      | Some r when Event_channel.ros_core ep.ep_chan = core ->
          Event_channel.rehome ep.ep_chan ~ros_core:r ();
          incr rerouted
      | Some _ | None -> ());
      match hrt_to with
      | Some h when Event_channel.hrt_core ep.ep_chan = core ->
          Event_channel.rehome ep.ep_chan ~hrt_core:h ();
          incr rerouted
      | Some _ | None -> ())
    t.fb_endpoints;
  !rerouted

(* --- load-shedding watchdog ---------------------------------------- *)

let ring_occupancy t =
  List.fold_left (fun m ep -> Stdlib.max m ep.ep_npending) 0 t.fb_endpoints

let ring_occupancy_hw t = int_of_float (Metrics.gauge_value t.g_ring_hw)

(* Shed-mode entry flips live Sync endpoints onto the always-works Async
   hypercall channel — under saturation the sync shared-word polling burns
   the very poller cycles the backlog needs — and remembers exactly which
   endpoints it flipped so the drain-side restore never promotes a channel
   that degraded because its sync path actually died. *)
let flip_endpoints_async t =
  List.iter
    (fun ep ->
      if
        Event_channel.kind ep.ep_chan = Event_channel.Sync
        && not (Event_channel.failed ep.ep_chan)
      then begin
        Event_channel.degrade_to_async ep.ep_chan;
        t.fb_shed_flipped <- ep :: t.fb_shed_flipped
      end)
    t.fb_endpoints

let restore_endpoints t =
  List.iter (fun ep -> Event_channel.restore_sync ep.ep_chan) t.fb_shed_flipped;
  t.fb_shed_flipped <- []

(* The watchdog samples ring occupancy every heartbeat and runs the
   high/low-water hysteresis: crossing [high_water] enters shed mode —
   Sync endpoints flip to Async and the doorbell-suppression window
   widens — and draining below [low_water] restores both.  It also
   publishes the occupancy gauges. *)
let rec shed_monitor t () =
  match t.fb_admission with
  | None -> t.fb_monitor_armed <- false
  | Some _ when t.fb_stop -> t.fb_monitor_armed <- false
  | Some ad ->
      let cap = Stdlib.max 1 ad.ad_ring_capacity in
      let occ = ring_occupancy t in
      let g_occ, g_waiters, g_shed =
        match t.fb_shed_gauges with
        | Some g -> g
        | None ->
            let m = t.fb_machine.Machine.metrics in
            let g =
              ( Metrics.gauge m ~ns:"fabric" "ring_occupancy",
                Metrics.gauge m ~ns:"fabric" "admission_waiters",
                Metrics.gauge m ~ns:"fabric" "shed_mode" )
            in
            t.fb_shed_gauges <- Some g;
            g
      in
      Metrics.set_gauge g_occ (float_of_int occ);
      Metrics.set_gauge g_waiters
        (float_of_int (List.fold_left (fun a ep -> a + ep.ep_nwaiters) 0 t.fb_endpoints));
      let frac = float_of_int occ /. float_of_int cap in
      if (not t.fb_shed_mode) && frac >= high_water then begin
        t.fb_shed_mode <- true;
        Metrics.inc t.c_shed_flips ();
        t.fb_attentive_polls <- default_attentive_polls * shed_attentive_widening;
        flip_endpoints_async t;
        Machine.emit t.fb_machine (Trace.Shed_mode { on = true })
      end
      else if t.fb_shed_mode && frac <= low_water then begin
        t.fb_shed_mode <- false;
        Metrics.inc t.c_shed_restores ();
        t.fb_attentive_polls <- default_attentive_polls;
        restore_endpoints t;
        Machine.emit t.fb_machine (Trace.Shed_mode { on = false })
      end;
      Metrics.set_gauge g_shed (if t.fb_shed_mode then 1. else 0.);
      Sim.schedule_after (Exec.sim t.fb_machine.Machine.exec) t.fb_heartbeat (shed_monitor t)

let set_admission t ad =
  t.fb_admission <- ad;
  (* Bucket parameters may have changed: rebuild lazily on next use, and
     give any parked waiters a chance to pass under the new policy. *)
  List.iter (fun ep -> ep.ep_bucket <- None) t.fb_endpoints;
  List.iter (fun ep -> pump_admission t ep) t.fb_endpoints;
  match ad with
  | Some _ when not t.fb_monitor_armed ->
      t.fb_monitor_armed <- true;
      Sim.schedule_after (Exec.sim t.fb_machine.Machine.exec) t.fb_heartbeat (shed_monitor t)
  | _ -> ()

let admission t = t.fb_admission

let make_admission ?(policy = Shed) ?(ring_capacity = 8) ?(queue_capacity = 16)
    ?(rate = 1e-4) ?(burst = 4) ?(shed_retries = 6) () =
  if ring_capacity < 1 then invalid_arg "Fabric.make_admission: ring_capacity < 1";
  if queue_capacity < 0 then invalid_arg "Fabric.make_admission: queue_capacity < 0";
  {
    ad_policy = policy;
    ad_ring_capacity = ring_capacity;
    ad_queue_capacity = queue_capacity;
    ad_rate = rate;
    ad_burst = burst;
    ad_shed_retries = shed_retries;
  }

let shutdown t =
  t.fb_stop <- true;
  let exec = t.fb_machine.Machine.exec in
  Array.iter
    (fun pg ->
      let rec release () =
        match Queue.take_opt pg.pg_parked with
        | None -> ()
        | Some (th, wake) ->
            if Exec.state exec th <> Exec.Finished then sched_now t wake;
            release ()
      in
      release ())
    t.fb_groups

(* --- transport with graceful degradation --- *)

(* Last-resort degradation: the endpoint (or the whole HRT partition) is
   lost, so instead of wedging, pay a native trap and run the payload in
   the caller's context — the legacy path that always works. *)
let reroute t (req : Event_channel.request) =
  Metrics.inc t.c_reroutes ();
  Machine.emit t.fb_machine
    (Trace.Reroute { kind = req.Event_channel.req_kind; spurious_errnos = false });
  Machine.charge t.fb_machine t.fb_machine.Machine.costs.Costs.syscall_trap;
  req.Event_channel.req_run ()

(* Channel call with the degradation chain: on exhausted retries a Sync
   endpoint falls back to the always-works Async hypercall channel; if
   even that fails, the endpoint is declared dead and this plus all
   subsequent requests reroute to ROS-native execution. *)
let transport t ep (req : Event_channel.request) =
  Metrics.inc t.c_transport ();
  if not (resilient t) then Event_channel.call ep.ep_chan req
  else if Event_channel.failed ep.ep_chan then reroute t req
  else
    try Event_channel.call ep.ep_chan req
    with Event_channel.Channel_failure _ ->
      if Event_channel.kind ep.ep_chan = Event_channel.Sync then begin
        Event_channel.degrade_to_async ep.ep_chan;
        Metrics.inc t.c_fallbacks ();
        Machine.emit t.fb_machine
          (Trace.Fallback_sync_to_async { kind = req.Event_channel.req_kind });
        try Event_channel.call ep.ep_chan req
        with Event_channel.Channel_failure _ ->
          Event_channel.mark_failed ep.ep_chan;
          reroute t req
      end
      else begin
        Event_channel.mark_failed ep.ep_chan;
        reroute t req
      end

(* --- batching: leaders, riders --- *)

(* Ride while somebody will service the ring without a new doorbell: a
   leader's doorbell is pending, or the endpoint's server is attentively
   polling the shared page. *)
let rec dispatch t ep (req : Event_channel.request) =
  if ep.ep_inflight || ep.ep_attentive then ride t ep req
  else lead t ep req

(* The leader rings the doorbell for everyone: its payload carries a ring
   drain that services every rider queued so far.  The suppression window
   is "doorbell rung but not yet answered" — the server closes it (first
   thing in the payload) before scanning the ring, so a caller arriving
   after the scan rings its own doorbell instead of waiting on a ride
   nobody will service.  The post-transport loop is only a backstop for
   degraded paths; on the healthy path the window discipline guarantees
   the payload drain leaves no rider pending. *)
and lead t ep (req : Event_channel.request) =
  ep.ep_inflight <- true;
  (* The window closes however the call ends, a kill included; a match
     rather than [Fun.protect], whose two closures a parked leader would
     keep. *)
  match
    transport t ep
      {
        req with
        Event_channel.req_run =
          (fun () ->
            ep.ep_inflight <- false;
            req.Event_channel.req_run ();
            drain_ring t ep);
      };
    (* Backstop for degraded paths only: an attentive server is already
       committed to the remaining slots, and on the healthy path the
       window discipline leaves none pending. *)
    while ep.ep_npending > 0 && not ep.ep_attentive do
      transport t ep
        { Event_channel.req_kind = "#drain"; req_run = (fun () -> drain_ring t ep) }
    done
  with
  | () -> ep.ep_inflight <- false
  | exception e ->
      ep.ep_inflight <- false;
      raise e

(* A rider queues into the shared-page ring: no hypercall, no doorbell —
   the in-flight leader's drain services it.  Under a fault plan the ride
   carries its own timeout; a timed-out Pending slot is reclaimed
   (host-atomically, see the slot-state comment) and re-dispatched. *)
and ride t ep (req : Event_channel.request) =
  Metrics.inc t.c_riders ();
  let slot = { sl_req = req; sl_state = Slot_pending; sl_wake = no_rider; sl_live = false } in
  Queue.add slot ep.ep_ring;
  ep.ep_npending <- ep.ep_npending + 1;
  let occupancy = float_of_int ep.ep_npending in
  if occupancy > Metrics.gauge_value t.g_ring_hw then Metrics.set_gauge t.g_ring_hw occupancy;
  (* The ring-slot store into the shared page. *)
  Machine.charge t.fb_machine (ring_cost t);
  (* Sized once per ride, from the channel as it is now; 0 arms none. *)
  let timeout =
    if resilient t then Event_channel.timeout_rtts * Event_channel.rtt ep.ep_chan else 0
  in
  ride_wait t ep slot timeout

(* Park on the slot until the ack, or until the timeout (under a fault
   plan), then settle the race with the drain. *)
and ride_wait t ep slot timeout =
  let exec = t.fb_machine.Machine.exec in
  let outcome =
    Exec.block exec
      ~reason:(Mv_util.Intern.get reason_ride slot.sl_req.Event_channel.req_kind)
      (fun ~now ~wake ->
        slot.sl_wake <- wake;
        slot.sl_live <- true;
        if timeout > 0 then
          Sim.schedule_at (Exec.sim exec) (now + timeout) (fun () ->
              if slot.sl_live then begin
                slot.sl_live <- false;
                wake Timed_out
              end))
  in
  match outcome with
  | Acked -> ()
  | Timed_out -> (
      match slot.sl_state with
      | Slot_done -> ()  (* the drain won the race *)
      | Slot_taken -> ride_wait t ep slot timeout  (* server mid-payload: keep waiting *)
      | Slot_pending ->
          (* Reclaim and escalate: ring our own doorbell after all. *)
          slot.sl_state <- Slot_claimed;
          ep.ep_npending <- ep.ep_npending - 1;
          pump_admission t ep;
          Metrics.inc t.c_ride_timeouts ();
          Machine.emit t.fb_machine
            (Trace.Ride_timeout { kind = slot.sl_req.Event_channel.req_kind });
          dispatch t ep slot.sl_req
      | Slot_claimed -> assert false)

(* --- promotion table (HRT-local fast paths) --- *)

let install_local t ~kind ?(promote_after = 0) ?(cost = 0) () =
  Hashtbl.replace t.fb_locals kind { le_promote_after = promote_after; le_cost = cost }

let local_path t ~key ~local_try (req : Event_channel.request) =
  match Hashtbl.find_opt t.fb_locals req.Event_channel.req_kind with
  | None -> false
  | Some le ->
      let k = (req.Event_channel.req_kind, Option.value key ~default:"") in
      let hits =
        match Hashtbl.find_opt t.fb_promo k with
        | Some r -> r
        | None ->
            let r = ref 0 in
            Hashtbl.replace t.fb_promo k r;
            r
      in
      if !hits >= le.le_promote_after then begin
        let attempt =
          match local_try with
          | Some f -> f
          | None ->
              fun () ->
                req.Event_channel.req_run ();
                true
        in
        if attempt () then begin
          incr hits;
          if le.le_cost > 0 then Machine.charge t.fb_machine le.le_cost;
          Metrics.inc t.c_local_hits ();
          true
        end
        else begin
          (* Demote: this key goes back to forwarding and must re-earn
             promotion (e.g. a write-barrier page that keeps re-faulting). *)
          hits := 0;
          Metrics.inc t.c_local_misses ();
          false
        end
      end
      else begin
        incr hits;
        false
      end

(* --- the admission gate (guest-side stub) -------------------------- *)

(* One gate pass per caller-visible forwarded request, evaluated after a
   local fast-path miss and before the request engages the transport.
   Admission needs ring space (the bounded slot ring) and a token from the
   endpoint's bucket; the errno retry chain and ride-timeout re-dispatches
   of an admitted request do not re-enter the gate.

   On refusal the [Shed] policy returns the typed [Overload] reply and the
   stub retries with exponential backoff (the PR 1 discipline, paid as
   simulated sleep so servers drain meanwhile); an impatient caller
   ({!offer}) gives up after [ad_shed_retries] replies.  The [Block]
   policy parks the caller in the endpoint's FIFO admission queue —
   backpressure on the enqueuing group — falling back to shedding only
   when that queue overflows its explicit capacity. *)
let enqueue_waiter t ep (req : Event_channel.request) =
  Metrics.inc t.c_blocked ();
  Exec.block t.fb_machine.Machine.exec
    ~reason:(Mv_util.Intern.get reason_admit req.Event_channel.req_kind)
    (fun ~now:_ ~wake ->
      ep.ep_nwaiters <- ep.ep_nwaiters + 1;
      Queue.add wake ep.ep_waiters;
      (* The pump wakes us via a scheduled event, so kicking it from
         the registration segment cannot wake a not-yet-parked
         thread. *)
      pump_admission t ep);
  (* The waker consumed a token and reserved our ring slot. *)
  ep.ep_granted <- ep.ep_granted - 1

(* One gate pass and the shed retries after it; top-level, so a caller
   sleeping out a backoff keeps no closure over the gate's state. *)
let rec admit_attempt t ep ad ~patient (req : Event_channel.request) ~sheds ~backoff
    ~max_backoff =
  let admissible =
    if ep.ep_npending + ep.ep_granted >= ad.ad_ring_capacity then false
    else if ad.ad_policy = Block && ep.ep_nwaiters > 0 then
      false (* FIFO fairness: nobody overtakes the admission queue *)
    else Mv_util.Token_bucket.take (bucket_of t ep ad) ~now:(Machine.now t.fb_machine)
  in
  if admissible then begin
    Metrics.inc t.c_admitted ();
    Ok ()
  end
  else if ad.ad_policy = Block && ep.ep_nwaiters < ad.ad_queue_capacity then begin
    enqueue_waiter t ep req;
    Metrics.inc t.c_admitted ();
    Ok ()
  end
  else begin
    if ad.ad_policy = Block then Metrics.inc t.c_queue_rejects ();
    Metrics.inc t.c_sheds ();
    Machine.emit t.fb_machine
      (Trace.Overload_shed { kind = req.Event_channel.req_kind; endpoint = ep.ep_name });
    if (not patient) && sheds + 1 > ad.ad_shed_retries then
      Error
        { ov_kind = req.Event_channel.req_kind; ov_endpoint = ep.ep_name; ov_sheds = sheds + 1 }
    else begin
      Metrics.inc t.c_shed_retries ();
      Exec.sleep t.fb_machine.Machine.exec backoff;
      admit_attempt t ep ad ~patient req ~sheds:(sheds + 1)
        ~backoff:(Stdlib.min max_backoff (backoff * 2))
        ~max_backoff
    end
  end

let admission_gate t ep ~patient (req : Event_channel.request) =
  match t.fb_admission with
  | None -> Ok ()
  | Some ad ->
      let base = Event_channel.rtt ep.ep_chan in
      admit_attempt t ep ad ~patient req ~sheds:0 ~backoff:base ~max_backoff:(64 * base)

let admit_patient t ep req =
  match admission_gate t ep ~patient:true req with
  | Ok () -> ()
  | Error _ -> assert false (* a patient gate never sheds terminally *)

(* --- the caller-facing entry point --- *)

(* Route a request that missed the local fast path: straight dispatch, or
   the spurious-errno retry chain when this call site is an errno fault
   site under an armed plan. *)
let route t ep ~errno_site (req : Event_channel.request) =
  if not (errno_site && resilient t) then dispatch t ep req
  else begin
    (* Spurious-errno injection and retry for forwarded syscalls: the
       server-side runner draws the errno stream; an injected errno means
       the payload never ran, so retry with exponential backoff and after
       persistent failures run it ROS-natively. *)
    let rec go attempt backoff =
      let ran = ref false in
      let wrapped =
        {
          req with
          Event_channel.req_run =
            (fun () ->
              if Event_channel.failed ep.ep_chan then begin
                ran := true;
                req.Event_channel.req_run ()
              end
              else
                match Fault_plan.syscall_errno t.fb_faults req.Event_channel.req_kind with
                | Some _errno -> ()  (* spurious errno: the payload never ran *)
                | None ->
                    ran := true;
                    req.Event_channel.req_run ());
        }
      in
      dispatch t ep wrapped;
      if not !ran then
        if attempt >= 4 then begin
          Metrics.inc t.c_reroutes ();
          Machine.emit t.fb_machine
            (Trace.Reroute { kind = req.Event_channel.req_kind; spurious_errnos = true });
          Machine.charge t.fb_machine t.fb_machine.Machine.costs.Costs.syscall_trap;
          req.Event_channel.req_run ()
        end
        else begin
          Metrics.inc t.c_errno_retries ();
          Machine.emit t.fb_machine
            (Trace.Errno_retry { attempt = attempt + 1; kind = req.Event_channel.req_kind });
          Machine.charge t.fb_machine backoff;
          go (attempt + 1) (backoff * 2)
        end
    in
    go 0 (Event_channel.rtt ep.ep_chan)
  end

let crossing_latency t kind =
  match Hashtbl.find_opt t.fb_crossing_lat kind with
  | Some l -> l
  | None ->
      let l =
        Metrics.latency t.fb_machine.Machine.metrics ~ns:"fabric" ("crossing:" ^ kind)
      in
      Hashtbl.add t.fb_crossing_lat kind l;
      l

let call t ep ?key ?(errno_site = false) ?local_try (req : Event_channel.request) =
  Metrics.inc t.c_calls ();
  let obs = t.fb_machine.Machine.obs in
  if not (Tracer.enabled obs) then begin
    if not (local_path t ~key ~local_try req) then begin
      admit_patient t ep req;
      route t ep ~errno_site req
    end
  end
  else begin
    (* Crossing span: one per caller-visible forwarded request, covering
       the whole ROS<->HRT round trip.  The payload wrapper timestamps the
       server-side pickup and completion (same virtual clock domain on
       both sides), and the three measured child segments — transport,
       service, reply — are recorded on return.  Whatever the segments do
       not cover (fast-path hits, injection overhead) is guest time by
       subtraction.  Nothing here charges simulated cycles. *)
    let now () = Machine.now t.fb_machine in
    let t0 = now () in
    let cid =
      Tracer.begin_span obs
        ~name:(Mv_util.Intern.get span_fwd req.Event_channel.req_kind)
        ~cat:"crossing" ()
    in
    let ran = ref false in
    let pickup = ref t0 and svc_end = ref t0 in
    let inst =
      {
        req with
        Event_channel.req_run =
          (fun () ->
            pickup := now ();
            req.Event_channel.req_run ();
            svc_end := now ();
            ran := true);
      }
    in
    Fun.protect
      ~finally:(fun () ->
        let t1 = now () in
        if !ran then begin
          ignore
            (Tracer.complete obs ~parent:cid ~name:"transport" ~cat:"transport" ~ts:t0
               ~dur:(!pickup - t0) ());
          ignore
            (Tracer.complete obs ~parent:cid ~name:"service" ~cat:"service" ~ts:!pickup
               ~dur:(!svc_end - !pickup) ());
          ignore
            (Tracer.complete obs ~parent:cid ~name:"reply" ~cat:"reply" ~ts:!svc_end
               ~dur:(t1 - !svc_end) ())
        end;
        Tracer.end_span obs cid;
        Metrics.observe
          (crossing_latency t req.Event_channel.req_kind)
          (float_of_int (t1 - t0)))
      (fun () ->
        if not (local_path t ~key ~local_try inst) then begin
          admit_patient t ep inst;
          route t ep ~errno_site inst
        end)
  end

(* Overload-aware variant of {!call} for open-loop clients that can drop
   work: the admission gate runs impatiently, so after [ad_shed_retries]
   typed [Overload] replies the request is abandoned without ever touching
   the transport (the payload has not run).  With no admission policy
   installed this is {!call} minus the promotion table and tracing. *)
let offer t ep ?(errno_site = false) (req : Event_channel.request) =
  Metrics.inc t.c_calls ();
  match admission_gate t ep ~patient:false req with
  | Error _ as e -> e
  | Ok () ->
      route t ep ~errno_site req;
      Ok ()

(* --- counters --- *)

let calls t = Metrics.counter_value t.c_calls
let transport_calls t = Metrics.counter_value t.c_transport
let riders t = Metrics.counter_value t.c_riders
let ride_timeouts t = Metrics.counter_value t.c_ride_timeouts
let drains t = Metrics.counter_value t.c_drains
let drained t = Metrics.counter_value t.c_drained
let local_hits t = Metrics.counter_value t.c_local_hits
let local_misses t = Metrics.counter_value t.c_local_misses
let retries t = Metrics.counter_value t.c_errno_retries + Metrics.counter_value t.c_chan_retries
let fallbacks t = Metrics.counter_value t.c_fallbacks
let reroutes t = Metrics.counter_value t.c_reroutes
let respawns t = Metrics.counter_value t.c_respawns
let endpoints t = List.length t.fb_endpoints

let pollers t =
  Array.fold_left (fun acc pg -> acc + List.length pg.pg_pollers) 0 t.fb_groups

let sheds t = Metrics.counter_value t.c_sheds
let shed_retries t = Metrics.counter_value t.c_shed_retries
let admission_blocked t = Metrics.counter_value t.c_blocked
let shed_flips t = Metrics.counter_value t.c_shed_flips
let shed_restores t = Metrics.counter_value t.c_shed_restores
