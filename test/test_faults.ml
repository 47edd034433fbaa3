(* Fault-injection and resilience tests: plan determinism, byte-identical
   fault traces from one seed, zero-cost-when-disabled, and graceful
   degradation (channel fallback, partner respawn) under injected faults. *)

module Machine = Mv_engine.Machine
module Exec = Mv_engine.Exec
module Sim = Mv_engine.Sim
module Trace = Mv_engine.Trace
module Event_channel = Mv_hvm.Event_channel
module Fault_plan = Mv_faults.Fault_plan
module Fabric = Mv_hvm.Fabric
open Multiverse

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* --- the plan itself --- *)

let test_plan_determinism () =
  let seq p = List.init 200 (fun i -> Fault_plan.fire p Fault_plan.Chan_drop (string_of_int i)) in
  let p1 = Fault_plan.create ~seed:123 ~rate:0.3 () in
  let p2 = Fault_plan.create ~seed:123 ~rate:0.3 () in
  Alcotest.(check (list bool)) "same seed, same decisions" (seq p1) (seq p2);
  let p5 = Fault_plan.create ~seed:124 ~rate:0.3 () in
  check_bool "different seed, different decisions" true (seq p1 <> seq p5);
  (* Disabling other sites must not shift this site's stream. *)
  let seq_delay p =
    List.init 200 (fun i -> Fault_plan.fire p Fault_plan.Chan_delay (string_of_int i))
  in
  let p3 = Fault_plan.create ~seed:123 ~rate:0.3 ~sites:[ Fault_plan.Chan_delay ] () in
  let p4 = Fault_plan.create ~seed:123 ~rate:0.3 () in
  ignore (seq p4);  (* drain the drop stream; the delay stream is independent *)
  Alcotest.(check (list bool)) "per-site streams independent" (seq_delay p3) (seq_delay p4)

let test_plan_none_inert () =
  check_bool "none disabled" false (Fault_plan.enabled Fault_plan.none);
  check_bool "none never fires" false (Fault_plan.fire Fault_plan.none Fault_plan.Chan_drop "x");
  check_int "none injects nothing" 0 (Fault_plan.injected Fault_plan.none)

(* --- channel-level protocol and retry behaviour --- *)

let test_complete_protocol_error () =
  let machine = Machine.create () in
  let ch = Event_channel.create machine ~kind:Event_channel.Async ~ros_core:0 ~hrt_core:7 in
  Alcotest.check_raises "complete with nothing served"
    (Event_channel.Protocol_error "Event_channel.complete: nothing being served")
    (fun () -> Event_channel.complete ch)

let test_channel_failure_after_retries () =
  let faults = Fault_plan.create ~seed:1 ~rate:1.0 ~sites:[ Fault_plan.Chan_drop ] () in
  let machine = Machine.create () in
  Fault_plan.bind faults machine;
  let ch =
    Event_channel.create ~faults machine ~kind:Event_channel.Async ~ros_core:0 ~hrt_core:7
  in
  (* The server parks forever: every request is dropped before reaching it. *)
  ignore
    (Exec.spawn machine.Machine.exec ~cpu:0 ~name:"server" (fun () ->
         ignore (Event_channel.serve_next ch)));
  let outcome = ref "no outcome" in
  ignore
    (Exec.spawn machine.Machine.exec ~cpu:7 ~name:"caller" (fun () ->
         try
           Event_channel.call ch { Event_channel.req_kind = "doomed"; req_run = (fun () -> ()) };
           outcome := "completed"
         with Event_channel.Channel_failure k -> outcome := "failed:" ^ k));
  Sim.run machine.Machine.sim;
  check_string "call fails after retries exhaust" "failed:doomed" !outcome;
  check_int "bounded retries" 6 (Event_channel.retries ch);
  check_int "every attempt timed out" 7 (Event_channel.timeouts ch);
  check_int "every attempt was dropped" 7 (Fault_plan.injected_at faults Fault_plan.Chan_drop)

let test_duplicate_runs_payload_once () =
  let faults = Fault_plan.create ~seed:5 ~rate:1.0 ~sites:[ Fault_plan.Chan_duplicate ] () in
  let machine = Machine.create () in
  Fault_plan.bind faults machine;
  let ch =
    Event_channel.create ~faults machine ~kind:Event_channel.Async ~ros_core:0 ~hrt_core:7
  in
  let runs = ref 0 in
  ignore
    (Exec.spawn machine.Machine.exec ~cpu:0 ~name:"server" (fun () ->
         (* Serve both deliveries: the duplicate must only re-acknowledge. *)
         let req = Event_channel.serve_next ch in
         req.Event_channel.req_run ();
         Event_channel.complete ch;
         ignore (Event_channel.serve_next ch)));
  ignore
    (Exec.spawn machine.Machine.exec ~cpu:7 ~name:"caller" (fun () ->
         Event_channel.call ch { Event_channel.req_kind = "dup"; req_run = (fun () -> incr runs) }));
  Sim.run machine.Machine.sim;
  check_int "duplicated delivery" 1 (Fault_plan.injected_at faults Fault_plan.Chan_duplicate);
  check_int "payload ran exactly once" 1 !runs

(* One delivery path: every request a [serve_next] server takes pays the
   delivery latency at the delay site, the ones already queued when it
   asks included, not only the one it parked for. *)
let test_every_take_passes_delay_site () =
  let faults = Fault_plan.create ~seed:3 ~rate:1.0 ~sites:[ Fault_plan.Chan_delay ] () in
  let machine = Machine.create () in
  Fault_plan.bind faults machine;
  let exec = machine.Machine.exec in
  let ch = Event_channel.create ~faults machine ~kind:Event_channel.Async ~ros_core:0 ~hrt_core:7 in
  let served = ref 0 in
  let request kind = { Event_channel.req_kind = kind; req_run = (fun () -> incr served) } in
  (* Three posts sit queued before the server first asks... *)
  List.iter (fun kind -> Event_channel.post ch (request kind)) [ "q1"; "q2"; "q3" ];
  ignore
    (Exec.spawn exec ~cpu:0 ~name:"server" (fun () ->
         for _ = 1 to 4 do
           let req = Event_channel.serve_next ch in
           req.Event_channel.req_run ();
           Event_channel.complete ch
         done));
  (* ...and a call arrives long after, while it is parked. *)
  ignore
    (Exec.spawn exec ~cpu:7 ~name:"caller" (fun () ->
         Exec.sleep exec 10_000_000;
         Event_channel.call ch (request "parked")));
  Sim.run machine.Machine.sim;
  check_int "every request served" 4 !served;
  check_int "every take was delayed" 4 (Fault_plan.injected_at faults Fault_plan.Chan_delay)

(* Under total loss a call makes 7 attempts, each timing out after 64
   round trips of the channel as it is when the attempt starts, with
   backoffs of 1, 2, ... 32 round trips between them: 7 signals plus
   (7 * 64 + 63) round trips in all.  A degrade or a re-home before the
   call changes the round trip every timeout is sized from. *)
let test_timeouts_follow_current_channel () =
  let costs = Mv_hw.Costs.default in
  let time_to_failure ~ros_core adjust =
    let faults = Fault_plan.create ~seed:1 ~rate:1.0 ~sites:[ Fault_plan.Chan_drop ] () in
    let machine = Machine.create () in
    Fault_plan.bind faults machine;
    let exec = machine.Machine.exec in
    let ch = Event_channel.create ~faults machine ~kind:Event_channel.Sync ~ros_core ~hrt_core:7 in
    adjust ch;
    let took = ref 0 in
    ignore
      (Exec.spawn exec ~cpu:7 ~name:"caller" (fun () ->
           let t0 = Exec.local_now exec in
           (try
              Event_channel.call ch { Event_channel.req_kind = "lost"; req_run = (fun () -> ()) };
              Alcotest.fail "a dropped call completed"
            with Event_channel.Channel_failure _ -> ());
           took := Exec.local_now exec - t0));
    Sim.run machine.Machine.sim;
    check_int "six retries" 6 (Event_channel.retries ch);
    !took
  in
  let expected ~signal ~rtt = (7 * signal) + (((7 * 64) + 63) * rtt) in
  check_int "degraded to async: async round trips"
    (expected ~signal:costs.Mv_hw.Costs.hypercall ~rtt:costs.Mv_hw.Costs.async_channel_rtt)
    (time_to_failure ~ros_core:0 Event_channel.degrade_to_async);
  (* Created across sockets from HRT core 7, then moved onto its socket;
     a sync signal is one shared-memory store (20 cycles). *)
  check_int "rehomed next to the HRT core: same-socket round trips"
    (expected ~signal:20 ~rtt:(Mv_hw.Costs.sync_channel_rtt costs ~distance:0))
    (time_to_failure ~ros_core:0 (fun ch -> Event_channel.rehome ch ~ros_core:4 ()))

(* --- who may wake a parked caller --- *)

(* A rate-0 plan arms every timeout and injects nothing, so these runs
   take the resilient paths on a schedule fixed by the test alone.  After
   its call returns, each caller naps: a second wake-up from an event of
   the call it has finished would cut the nap short. *)
let quiet_plan () = Fault_plan.create ~seed:1 ~rate:0.0 ()

let async_timeout = Event_channel.timeout_rtts * Mv_hw.Costs.default.Mv_hw.Costs.async_channel_rtt
let nap = 10 * async_timeout

(* Calls [f], naps, and checks the nap was not cut short; returns the
   local time at which [f] returned. *)
let call_then_nap exec f =
  f ();
  let returned = Exec.local_now exec in
  Exec.sleep exec nap;
  check_bool "no stale wake-up cut the nap short" true (Exec.local_now exec - returned >= nap);
  returned

let counting kind runs = { Event_channel.req_kind = kind; req_run = (fun () -> incr runs) }

let fabric_with_plan () =
  let faults = quiet_plan () in
  let machine = Machine.create () in
  Fault_plan.bind faults machine;
  let fabric = Fabric.create ~faults machine ~kind:Event_channel.Async in
  let ep = Fabric.endpoint fabric ~name:"ride" ~ros_core:0 ~hrt_core:7 in
  (machine, fabric, ep)

let start_pool machine fabric =
  let exec = machine.Machine.exec in
  Fabric.start_pool fabric
    ~spawn:(fun ~name ~core body -> Exec.spawn exec ~cpu:core ~name body)
    ~cores:[ 0; 1 ] ()

(* Joins [threads], then stops the fabric so the pool watchdog quiesces. *)
let shut_down_after machine fabric threads =
  let exec = machine.Machine.exec in
  ignore
    (Exec.spawn exec ~cpu:2 ~name:"coordinator" (fun () ->
         List.iter (Exec.join exec) threads;
         Fabric.shutdown fabric))

(* Nobody serves the endpoint until 1.5 timeouts in, so the rider's
   timeout fires while its slot is still Pending: it reclaims the slot and
   dispatches again, as a rider of the same in-flight leader, and the
   leader's drain runs its payload once. *)
let test_pending_ride_timeout_reclaims () =
  let machine, fabric, ep = fabric_with_plan () in
  let exec = machine.Machine.exec in
  let leader_runs = ref 0 and rider_runs = ref 0 in
  let leader =
    Exec.spawn exec ~cpu:7 ~name:"leader" (fun () ->
        ignore
          (call_then_nap exec (fun () -> Fabric.call fabric ep (counting "lead" leader_runs))))
  in
  let rider =
    Exec.spawn exec ~cpu:7 ~name:"rider" (fun () ->
        ignore
          (call_then_nap exec (fun () -> Fabric.call fabric ep (counting "ride" rider_runs))))
  in
  ignore
    (Exec.spawn exec ~cpu:0 ~name:"late-pool" (fun () ->
         Exec.sleep exec (3 * async_timeout / 2);
         start_pool machine fabric));
  shut_down_after machine fabric [ leader; rider ];
  Mv_engine.Sim.run machine.Machine.sim;
  check_int "the rider's slot was reclaimed once" 1 (Fabric.ride_timeouts fabric);
  check_int "and it rode again" 2 (Fabric.riders fabric);
  check_int "the rider's payload ran once" 1 !rider_runs;
  check_int "the leader's payload ran once" 1 !leader_runs;
  check_int "the leader's first attempt timed out" 1
    (Event_channel.timeouts (Fabric.channel ep));
  check_bool "both callers finished" true
    (List.for_all (fun th -> Exec.state exec th = Exec.Finished) [ leader; rider ])

(* The rider's payload sleeps 1.5 timeouts inside the server's drain, so
   the rider's timeout fires while its slot is Taken: it waits again on
   the same slot, and the drain's ack, not the re-armed timeout, wakes it,
   once. *)
let test_taken_ride_timeout_waits_for_ack () =
  let machine, fabric, ep = fabric_with_plan () in
  let exec = machine.Machine.exec in
  start_pool machine fabric;
  let leader_runs = ref 0 and rider_runs = ref 0 in
  let payload_end = ref 0 in
  let slow =
    {
      Event_channel.req_kind = "slow";
      req_run =
        (fun () ->
          Exec.sleep exec (3 * async_timeout / 2);
          incr rider_runs;
          payload_end := Exec.local_now exec);
    }
  in
  let leader =
    Exec.spawn exec ~cpu:7 ~name:"leader" (fun () ->
        ignore
          (call_then_nap exec (fun () -> Fabric.call fabric ep (counting "lead" leader_runs))))
  in
  let started = ref 0 and returned = ref 0 in
  let rider =
    Exec.spawn exec ~cpu:7 ~name:"rider" (fun () ->
        started := Exec.local_now exec;
        returned := call_then_nap exec (fun () -> Fabric.call fabric ep slow))
  in
  shut_down_after machine fabric [ leader; rider ];
  Mv_engine.Sim.run machine.Machine.sim;
  check_int "it rode" 1 (Fabric.riders fabric);
  check_int "no slot was reclaimed" 0 (Fabric.ride_timeouts fabric);
  check_int "the rider's payload ran once" 1 !rider_runs;
  check_int "the leader's payload ran once" 1 !leader_runs;
  let waited = !returned - !started in
  check_bool "the rider waited past its first timeout" true (waited > async_timeout);
  check_bool "and returned before its re-armed timeout" true (waited < 2 * async_timeout);
  check_int "woken by the ack, one ack latency after the payload" !returned
    (!payload_end + (Mv_hw.Costs.default.Mv_hw.Costs.sync_channel_same_socket / 2))

(* A caller killed while parked in [Event_channel.call]: the server's
   reply, sent long after the kill, and the attempt's timeout both find
   it finished and resume nothing. *)
let test_killed_caller_not_resumed () =
  let faults = quiet_plan () in
  let machine = Machine.create () in
  Fault_plan.bind faults machine;
  let exec = machine.Machine.exec in
  let ch = Event_channel.create ~faults machine ~kind:Event_channel.Async ~ros_core:0 ~hrt_core:7 in
  let runs = ref 0 and resumed = ref false and cancelled = ref false in
  let served = ref false in
  ignore
    (Exec.spawn exec ~cpu:0 ~name:"server" (fun () ->
         let req = Event_channel.serve_next ch in
         Exec.sleep exec (async_timeout / 2);
         req.Event_channel.req_run ();
         Event_channel.complete ch;
         served := true));
  let caller =
    Exec.spawn exec ~cpu:7 ~name:"caller" (fun () ->
        match Event_channel.call ch (counting "late" runs) with
        | () -> resumed := true
        | exception Mv_engine.Fiber.Cancelled ->
            cancelled := true;
            raise Mv_engine.Fiber.Cancelled)
  in
  ignore
    (Exec.spawn exec ~cpu:1 ~name:"killer" (fun () ->
         Exec.sleep exec (async_timeout / 4);
         check_bool "the caller is parked in the call" true
           (Exec.state exec caller = Exec.Blocked "evtchan:late");
         Exec.kill exec caller));
  Mv_engine.Sim.run machine.Machine.sim;
  check_bool "the server replied" true !served;
  check_int "the payload ran once" 1 !runs;
  check_bool "the kill unwound the call" true !cancelled;
  check_bool "the late reply resumed nothing" false !resumed;
  check_bool "the caller stays finished" true (Exec.state exec caller = Exec.Finished);
  check_int "no timeout reached the caller" 0 (Event_channel.timeouts ch)

(* --- end-to-end workload under injected faults --- *)

(* Enough iterations (and forwarded calls) to span many watchdog
   heartbeats, with deterministic output to compare against native. *)
let work_program =
  {
    Toolchain.prog_name = "fault-workload";
    prog_main =
      (fun env ->
        let open Mv_guest in
        let libc = Libc.create env in
        let addr = env.Env.mmap ~len:8192 ~prot:Mv_ros.Mm.prot_rw ~kind:"buf" in
        let acc = ref 0 in
        for i = 1 to 40 do
          env.Env.work 50_000;
          env.Env.store addr;
          ignore (env.Env.getrusage ());
          acc := !acc + i;
          if i mod 8 = 0 then Libc.printf libc "tick %d acc=%d\n" i !acc
        done;
        env.Env.munmap ~addr ~len:8192;
        Libc.printf libc "done acc=%d\n" !acc;
        Libc.flush_all libc)
  }

let expected_stdout = lazy (Toolchain.run_native work_program).Toolchain.rs_stdout

let run_with ?(sync = false) faults =
  let options =
    {
      Toolchain.default_mv_options with
      mv_channel = (if sync then Mv_hvm.Event_channel.Sync else Mv_hvm.Event_channel.Async);
      mv_faults = faults;
    }
  in
  Toolchain.run_multiverse ~trace:true ~options (Toolchain.hybridize work_program)

let fabric_of rs =
  match rs.Toolchain.rs_runtime with
  | Some rt -> Runtime.fabric rt
  | None -> Alcotest.fail "no runtime handle"

let trace_in rs category =
  List.map
    (fun r -> Printf.sprintf "%d %s" r.Trace.at r.Trace.message)
    (Trace.records_in rs.Toolchain.rs_machine.Machine.trace ~category)

let test_fault_trace_deterministic () =
  let run () = run_with (Fault_plan.create ~seed:1234 ~rate:0.08 ()) in
  let a = run () and b = run () in
  check_bool "faults were injected" true (trace_in a "fault" <> []);
  Alcotest.(check (list string)) "identical fault trace" (trace_in a "fault") (trace_in b "fault");
  Alcotest.(check (list string))
    "identical resilience trace" (trace_in a "resilience") (trace_in b "resilience");
  check_string "identical stdout" a.Toolchain.rs_stdout b.Toolchain.rs_stdout;
  check_int "identical wall cycles" a.Toolchain.rs_wall_cycles b.Toolchain.rs_wall_cycles;
  check_string "output still correct" (Lazy.force expected_stdout) a.Toolchain.rs_stdout

let test_zero_fault_plan_neutral () =
  (* A rate-0 plan arms every resilience path (timeouts, watchdog,
     errno checks) but never fires: the run must be indistinguishable
     from the fault-free runtime. *)
  let off = run_with Fault_plan.none in
  let plan = Fault_plan.create ~seed:99 ~rate:0.0 () in
  let zero = run_with plan in
  check_string "stdout identical" off.Toolchain.rs_stdout zero.Toolchain.rs_stdout;
  check_int "wall cycles identical" off.Toolchain.rs_wall_cycles zero.Toolchain.rs_wall_cycles;
  check_int "syscall totals identical" (Toolchain.total_syscalls off)
    (Toolchain.total_syscalls zero);
  Alcotest.(check (list string))
    "no fault or resilience records" [] (trace_in zero "fault" @ trace_in zero "resilience");
  let fb = fabric_of zero in
  check_int "nothing injected" 0 (Fault_plan.injected plan);
  check_int "no retries" 0 (Fabric.retries fb);
  check_int "no fallbacks" 0 (Fabric.fallbacks fb);
  check_int "no respawns" 0 (Fabric.respawns fb)

let test_sync_loss_falls_back_to_async () =
  let rs =
    run_with ~sync:true (Fault_plan.create ~seed:7 ~rate:0.7 ~sites:[ Fault_plan.Chan_drop ] ())
  in
  check_string "output correct under heavy loss" (Lazy.force expected_stdout)
    rs.Toolchain.rs_stdout;
  check_int "clean exit" 0 rs.Toolchain.rs_exit_code;
  let fb = fabric_of rs in
  check_bool "retried with backoff" true (Fabric.retries fb >= 1);
  check_bool "fell back sync->async" true (Fabric.fallbacks fb >= 1)

let test_partner_kill_respawns () =
  let plan = Fault_plan.create ~seed:11 ~rate:0.5 ~sites:[ Fault_plan.Partner_kill ] () in
  let rs = run_with plan in
  check_string "output correct across partner deaths" (Lazy.force expected_stdout)
    rs.Toolchain.rs_stdout;
  check_bool "partner was killed" true (Fault_plan.injected_at plan Fault_plan.Partner_kill >= 1);
  check_bool "watchdog respawned it" true (Fabric.respawns (fabric_of rs) >= 1)

let test_spurious_errno_retries () =
  let rs =
    run_with
      (Fault_plan.create ~seed:3 ~rate:0.3
         ~sites:[ Fault_plan.Syscall_eagain; Fault_plan.Syscall_enosys ]
         ())
  in
  check_string "output correct under spurious errnos" (Lazy.force expected_stdout)
    rs.Toolchain.rs_stdout;
  check_bool "forwarded syscalls retried" true (Fabric.retries (fabric_of rs) >= 1)

let test_boot_stall () =
  let faults = Fault_plan.create ~seed:2 ~rate:1.0 ~sites:[ Fault_plan.Boot_stall ] () in
  let rs = run_with faults in
  check_string "output correct after boot stall" (Lazy.force expected_stdout)
    rs.Toolchain.rs_stdout;
  check_int "boot stalled exactly once" 1 (Fault_plan.injected_at faults Fault_plan.Boot_stall)

let suite =
  [
    Alcotest.test_case "plan: deterministic per-site streams" `Quick test_plan_determinism;
    Alcotest.test_case "plan: none is inert" `Quick test_plan_none_inert;
    Alcotest.test_case "channel: complete without serve is a protocol error" `Quick
      test_complete_protocol_error;
    Alcotest.test_case "channel: bounded retries then Channel_failure" `Quick
      test_channel_failure_after_retries;
    Alcotest.test_case "channel: duplicated delivery runs payload once" `Quick
      test_duplicate_runs_payload_once;
    Alcotest.test_case "channel: every serve_next take passes the delay site" `Quick
      test_every_take_passes_delay_site;
    Alcotest.test_case "channel: timeouts follow the current kind and distance" `Quick
      test_timeouts_follow_current_channel;
    Alcotest.test_case "ride: a timeout on a pending slot reclaims it once" `Quick
      test_pending_ride_timeout_reclaims;
    Alcotest.test_case "ride: a timeout on a taken slot waits for the ack" `Quick
      test_taken_ride_timeout_waits_for_ack;
    Alcotest.test_case "channel: a caller killed while parked is never resumed" `Quick
      test_killed_caller_not_resumed;
    Alcotest.test_case "e2e: fault trace reproducible from seed" `Quick
      test_fault_trace_deterministic;
    Alcotest.test_case "e2e: zero-fault plan is cycle-neutral" `Quick test_zero_fault_plan_neutral;
    Alcotest.test_case "e2e: sync loss degrades to async" `Quick test_sync_loss_falls_back_to_async;
    Alcotest.test_case "e2e: killed partners are respawned" `Quick test_partner_kill_respawns;
    Alcotest.test_case "e2e: spurious errnos are retried" `Quick test_spurious_errno_retries;
    Alcotest.test_case "e2e: boot stall is survived" `Quick test_boot_stall;
  ]
