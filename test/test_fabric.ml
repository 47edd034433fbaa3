(* End-to-end tests of the forwarding fabric: four-plus execution groups
   routed over the shared poller pool, request batching (leaders, riders,
   drains) on a single endpoint, doorbell suppression accounting, the
   local fast-path promotion table, and the counters living in the
   machine's metrics registry.  The fault-facing behaviour (retries,
   degradation, watchdog respawns) is covered by test_faults.ml and the
   mvcheck fabric scenarios. *)

module Fabric = Mv_hvm.Fabric
module Event_channel = Mv_hvm.Event_channel
module Machine = Mv_engine.Machine
module Exec = Mv_engine.Exec
module Metrics = Mv_obs.Metrics
open Multiverse

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let runtime rs =
  match rs.Toolchain.rs_runtime with
  | Some rt -> rt
  | None -> Alcotest.fail "no runtime handle"

(* --- routing: more execution groups than dedicated servers --- *)

let fanout_program =
  {
    Toolchain.prog_name = "fabric-fanout";
    prog_main =
      (fun env ->
        let open Mv_guest in
        let libc = Libc.create env in
        let n = 4 in
        let slots = Array.make n 0 in
        let spawn i =
          env.Env.thread_create ~name:(Printf.sprintf "fan-%d" i) (fun () ->
              let acc = ref 0 in
              for k = 1 to 5 do
                env.Env.work 10_000;
                ignore (env.Env.getrusage ());
                ignore (env.Env.getpid ());
                acc := !acc + k
              done;
              slots.(i) <- !acc)
        in
        let ts = List.init n spawn in
        List.iter env.Env.thread_join ts;
        Libc.printf libc "fanout %d %d %d %d\n" slots.(0) slots.(1) slots.(2) slots.(3);
        Libc.flush_all libc);
  }

let test_four_groups_routed () =
  let rs = Toolchain.run_multiverse (Toolchain.hybridize fanout_program) in
  check_string "stdout" "fanout 15 15 15 15\n" rs.Toolchain.rs_stdout;
  check_int "exit code" 0 rs.Toolchain.rs_exit_code;
  let rt = runtime rs in
  let f = Runtime.fabric rt in
  (* main + four workers, each a top-level HRT thread with its own group. *)
  check_bool "at least five execution groups" true (Runtime.groups_created rt >= 5);
  (* One fabric endpoint per group plus the signal-injection endpoint,
     all served by the one shared pool — not one server loop per group. *)
  check_bool "one endpoint per group plus signals" true
    (Fabric.endpoints f >= Runtime.groups_created rt + 1);
  check_bool "shared poller pool" true (Fabric.pollers f >= 2);
  (* Routing decouples servers from groups: a single-group run uses the
     same pool size as the five-group run (topology-sized, not per-group). *)
  let single =
    {
      Toolchain.prog_name = "fabric-single";
      prog_main = (fun env -> ignore (env.Mv_guest.Env.getrusage ()));
    }
  in
  let rs1 = Toolchain.run_multiverse (Toolchain.hybridize single) in
  check_int "pool size independent of group count"
    (Fabric.pollers (Runtime.fabric (runtime rs1)))
    (Fabric.pollers f);
  (* 4 workers x 5 getrusage forwarded, plus prints and getpid calls. *)
  check_bool "forwarded calls went through the fabric" true (Fabric.calls f >= 20);
  check_bool "vdso-like calls hit the local fast path" true (Fabric.local_hits f > 0);
  check_bool "transport never exceeds entry calls" true
    (Fabric.transport_calls f <= Fabric.calls f)

(* --- batching: concurrent nested callers on one endpoint --- *)

(* Four nested AeroKernel threads share the top-level group's endpoint;
   whenever one of them has a call in flight, the others ride the
   shared-page ring instead of ringing their own doorbell. *)
let rider_workload rt =
  let partner =
    Runtime.hrt_invoke rt ~name:"top" (fun env ->
        let nested =
          List.init 4 (fun i ->
              Runtime.create_nested rt ~name:(Printf.sprintf "rider-%d" i)
                (fun () ->
                  for _ = 1 to 4 do
                    ignore (env.Mv_guest.Env.getrusage ())
                  done))
        in
        List.iter (fun th -> Runtime.join_nested rt th) nested)
  in
  Runtime.join rt partner

let test_riders_batch () =
  let rs =
    Toolchain.run_accelerator ~name:"fabric-riders" (fun ~ros_env:_ ~rt ->
        rider_workload rt)
  in
  let f = Runtime.fabric (runtime rs) in
  check_bool "doorbells were suppressed (riders > 0)" true (Fabric.riders f > 0);
  check_int "every rider was drained exactly once" (Fabric.riders f) (Fabric.drained f);
  check_int "no ride timeouts in a fault-free run" 0 (Fabric.ride_timeouts f);
  check_bool "fewer doorbells than calls" true
    (Fabric.transport_calls f < Fabric.calls f);
  check_bool "drain rounds happened" true (Fabric.drains f > 0)

(* --- promotion table: vdso-like calls never touch the transport --- *)

let vdso_program =
  {
    Toolchain.prog_name = "fabric-vdso";
    prog_main =
      (fun env ->
        let open Mv_guest in
        let libc = Libc.create env in
        let pid = ref 0 in
        for _ = 1 to 5 do
          ignore (env.Env.gettimeofday ());
          pid := env.Env.getpid ()
        done;
        Libc.printf libc "vdso pid=%d\n" !pid;
        Libc.flush_all libc);
  }

let test_vdso_local_path () =
  let rs = Toolchain.run_multiverse (Toolchain.hybridize vdso_program) in
  check_string "stdout" "vdso pid=1\n" rs.Toolchain.rs_stdout;
  let f = Runtime.fabric (runtime rs) in
  (* gettimeofday and getpid are installed with promote_after:0 — every
     one of the ten calls is a local hit, none rings a doorbell. *)
  check_bool "all vdso-like calls serviced locally" true (Fabric.local_hits f >= 10);
  check_int "no demotions for stable locals" 0 (Fabric.local_misses f);
  check_bool "transport never exceeds entry calls" true
    (Fabric.transport_calls f <= Fabric.calls f)

(* --- counters are registry slots, live without any sampling step --- *)

let test_counters_live_in_metrics () =
  let machine = Machine.create () in
  let exec = machine.Machine.exec in
  let fabric = Fabric.create machine ~kind:Event_channel.Async in
  Fabric.start_pool fabric
    ~spawn:(fun ~name ~core body -> Exec.spawn exec ~cpu:core ~name body)
    ~cores:[ 0; 1 ] ();
  let ep = Fabric.endpoint fabric ~name:"live" ~ros_core:0 ~hrt_core:7 in
  let caller =
    Exec.spawn exec ~cpu:7 ~name:"caller" (fun () ->
        for _ = 1 to 5 do
          Fabric.call fabric ep { Event_channel.req_kind = "ping"; req_run = (fun () -> ()) }
        done)
  in
  ignore
    (Exec.spawn exec ~cpu:0 ~name:"coordinator" (fun () ->
         Exec.join exec caller;
         Fabric.shutdown fabric));
  Mv_engine.Sim.run machine.Machine.sim;
  let counter name =
    match Metrics.find machine.Machine.metrics name with
    | Some (Metrics.Counter_v n) -> n
    | _ -> Alcotest.failf "%s is not a counter in machine.metrics" name
  in
  check_int "five calls" 5 (Fabric.calls fabric);
  check_int "fabric/calls" (Fabric.calls fabric) (counter "fabric/calls");
  check_int "fabric/transport" (Fabric.transport_calls fabric) (counter "fabric/transport");
  check_bool "doorbells rung" true (Fabric.transport_calls fabric > 0);
  check_int "event_channel/calls"
    (Event_channel.calls (Fabric.channel ep))
    (counter "event_channel/calls");
  check_bool "channel calls made" true (Event_channel.calls (Fabric.channel ep) > 0)

let suite =
  [
    ("four groups routed over the shared pool", `Quick, test_four_groups_routed);
    ("concurrent nested callers batch as riders", `Quick, test_riders_batch);
    ("vdso fast path stays local", `Quick, test_vdso_local_path);
    ("counters live in machine.metrics", `Quick, test_counters_live_in_metrics);
  ]
