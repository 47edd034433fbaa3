(* Tests for the discrete-event engine: event queue ordering, virtual
   clock, fibers, and the per-CPU executor's virtual-time semantics. *)

open Mv_engine

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Event_queue --- *)

let test_eq_order () =
  let q = Event_queue.create () in
  Event_queue.push q ~time:30 "c";
  Event_queue.push q ~time:10 "a";
  Event_queue.push q ~time:20 "b";
  let order = List.init 3 (fun _ -> Event_queue.pop q) in
  Alcotest.(check (list (option (pair int string))))
    "pops in time order"
    [ Some (10, "a"); Some (20, "b"); Some (30, "c") ]
    order

let test_eq_fifo_ties () =
  let q = Event_queue.create () in
  for i = 0 to 9 do
    Event_queue.push q ~time:5 i
  done;
  let popped = List.init 10 (fun _ -> match Event_queue.pop q with
    | Some (_, v) -> v
    | None -> -1)
  in
  Alcotest.(check (list int)) "ties pop in insertion order" (List.init 10 Fun.id) popped

let test_eq_interleaved () =
  let q = Event_queue.create () in
  Event_queue.push q ~time:10 1;
  Event_queue.push q ~time:5 0;
  (match Event_queue.pop q with
  | Some (5, 0) -> ()
  | _ -> Alcotest.fail "expected (5,0)");
  Event_queue.push q ~time:7 2;
  (match Event_queue.pop q with
  | Some (7, 2) -> ()
  | _ -> Alcotest.fail "expected (7,2)");
  check_int "size" 1 (Event_queue.size q)

let qcheck_eq_sorted =
  QCheck.Test.make ~name:"event queue pops sorted by time"
    QCheck.(list (int_bound 10_000))
    (fun times ->
      let q = Event_queue.create () in
      List.iter (fun t -> Event_queue.push q ~time:t t) times;
      let rec drain acc =
        match Event_queue.pop q with
        | None -> List.rev acc
        | Some (t, _) -> drain (t :: acc)
      in
      let popped = drain [] in
      popped = List.sort compare times)

(* --- Sim --- *)

let test_sim_clock () =
  let sim = Sim.create () in
  let seen = ref [] in
  Sim.schedule_at sim 100 (fun () -> seen := (100, Sim.now sim) :: !seen);
  Sim.schedule_at sim 50 (fun () ->
      seen := (50, Sim.now sim) :: !seen;
      Sim.schedule_after sim 25 (fun () -> seen := (75, Sim.now sim) :: !seen));
  Sim.run sim;
  Alcotest.(check (list (pair int int)))
    "clock equals event time" [ (50, 50); (75, 75); (100, 100) ] (List.rev !seen)

let test_sim_no_past () =
  let sim = Sim.create () in
  Sim.schedule_at sim 10 (fun () ->
      Alcotest.check_raises "no scheduling in the past"
        (Invalid_argument "Sim.schedule_at: time 5 is before now 10") (fun () ->
          Sim.schedule_at sim 5 ignore));
  Sim.run sim

let test_sim_run_until () =
  let sim = Sim.create () in
  let fired = ref 0 in
  Sim.schedule_at sim 10 (fun () -> incr fired);
  Sim.schedule_at sim 100 (fun () -> incr fired);
  Sim.run_until sim 50;
  check_int "one event before limit" 1 !fired;
  check_int "clock at limit" 50 (Sim.now sim);
  Sim.run sim;
  check_int "rest after resume" 2 !fired

(* --- Fiber --- *)

let test_fiber_suspend_resume () =
  let stash = ref None in
  let result = ref 0 in
  Fiber.run (fun () ->
      let v = Fiber.suspend (fun r -> stash := Some r) in
      result := v + 1);
  check_int "not resumed yet" 0 !result;
  (match !stash with
  | Some r -> Fiber.resume r 41
  | None -> Alcotest.fail "no resumer");
  check_int "resumed with value" 42 !result

let test_fiber_cancel () =
  let stash = ref None in
  let cleaned = ref false in
  Fiber.run (fun () ->
      Fun.protect
        ~finally:(fun () -> cleaned := true)
        (fun () -> Fiber.suspend (fun r -> stash := Some r)));
  (match !stash with
  | Some r -> Fiber.cancel r Fiber.Cancelled
  | None -> Alcotest.fail "no resumer");
  check_bool "finalizer ran on cancel" true !cleaned

let test_fiber_double_resume () =
  let stash = ref None in
  Fiber.run (fun () -> Fiber.suspend (fun r -> stash := Some r));
  let r = Option.get !stash in
  Fiber.resume r ();
  Alcotest.check_raises "second resume rejected" (Failure "Fiber: resumer used twice")
    (fun () -> Fiber.resume r ())

(* --- Exec --- *)

let test_exec_charge_advances_time () =
  let sim = Sim.create () in
  let ex = Exec.create sim ~ncpus:1 in
  let finish_time = ref 0 in
  let th =
    Exec.spawn ex ~cpu:0 ~name:"worker" (fun () ->
        Exec.charge ex 1000;
        Exec.charge ex 500;
        finish_time := Exec.local_now ex)
  in
  Sim.run sim;
  check_int "local time advanced by charges" 1500 !finish_time;
  check_int "thread cpu time" 1500 (Exec.cpu_time th)

let test_exec_serializes_one_cpu () =
  let sim = Sim.create () in
  let ex = Exec.create sim ~ncpus:1 in
  let spans = ref [] in
  let worker name () =
    let start = Exec.local_now ex in
    Exec.charge ex 1000;
    spans := (name, start, Exec.local_now ex) :: !spans
  in
  ignore (Exec.spawn ex ~cpu:0 ~name:"a" (worker "a"));
  ignore (Exec.spawn ex ~cpu:0 ~name:"b" (worker "b"));
  Sim.run sim;
  match List.rev !spans with
  | [ ("a", s1, e1); ("b", s2, e2) ] ->
      check_int "a starts at 0" 0 s1;
      check_int "a runs 1000" 1000 e1;
      check_bool "b starts after a ends" true (s2 >= e1);
      check_int "b runs 1000" 1000 (e2 - s2)
  | _ -> Alcotest.fail "expected two spans"

let test_exec_parallel_cpus () =
  let sim = Sim.create () in
  let ex = Exec.create sim ~ncpus:2 in
  let ends = ref [] in
  let worker () =
    Exec.charge ex 1000;
    ends := Exec.local_now ex :: !ends
  in
  ignore (Exec.spawn ex ~cpu:0 ~name:"a" worker);
  ignore (Exec.spawn ex ~cpu:1 ~name:"b" worker);
  Sim.run sim;
  Alcotest.(check (list int)) "both finish at 1000 (true parallelism)" [ 1000; 1000 ] !ends

let test_exec_block_wake () =
  let sim = Sim.create () in
  let ex = Exec.create sim ~ncpus:2 in
  let waker = ref None in
  let got = ref 0 in
  let woke_at = ref 0 in
  ignore
    (Exec.spawn ex ~cpu:0 ~name:"sleeper" (fun () ->
         Exec.charge ex 100;
         let v = Exec.block ex ~reason:"wait" (fun ~now:_ ~wake -> waker := Some wake) in
         got := v;
         woke_at := Exec.local_now ex));
  ignore
    (Exec.spawn ex ~cpu:1 ~name:"waker" (fun () ->
         Exec.charge ex 5000;
         (Option.get !waker) 7));
  Sim.run sim;
  check_int "woken with value" 7 !got;
  check_bool "resumed no earlier than waker time" true (!woke_at >= 5000)

let test_exec_wake_respects_block_time () =
  (* A thread that blocks at t=5000 must not resume before 5000 even if the
     wake arrives (virtually) earlier. *)
  let sim = Sim.create () in
  let ex = Exec.create sim ~ncpus:2 in
  let waker = ref None in
  let woke_at = ref 0 in
  ignore
    (Exec.spawn ex ~cpu:0 ~name:"busy-then-wait" (fun () ->
         Exec.charge ex 5000;
         let () = Exec.block ex ~reason:"wait" (fun ~now:_ ~wake -> waker := Some wake) in
         woke_at := Exec.local_now ex));
  ignore
    (Exec.spawn ex ~cpu:1 ~name:"early-waker" (fun () ->
         Exec.charge ex 200;
         match !waker with
         | Some wake -> wake ()
         | None ->
             (* The other thread has not blocked yet in host order; wait for
                it via a timed retry. *)
             Exec.sleep ex 10_000;
             (Option.get !waker) ()));
  Sim.run sim;
  check_bool "no resume before block time" true (!woke_at >= 5000)

let test_exec_sleep () =
  let sim = Sim.create () in
  let ex = Exec.create sim ~ncpus:1 in
  let woke = ref 0 in
  ignore
    (Exec.spawn ex ~cpu:0 ~name:"sleeper" (fun () ->
         Exec.charge ex 100;
         Exec.sleep ex 1000;
         woke := Exec.local_now ex));
  Sim.run sim;
  check_int "sleep duration" 1100 !woke

let test_exec_join () =
  let sim = Sim.create () in
  let ex = Exec.create sim ~ncpus:2 in
  let child_done = ref 0 in
  let join_done = ref 0 in
  let child =
    Exec.spawn ex ~cpu:1 ~name:"child" (fun () ->
        Exec.charge ex 3000;
        child_done := Exec.local_now ex)
  in
  ignore
    (Exec.spawn ex ~cpu:0 ~name:"parent" (fun () ->
         Exec.charge ex 10;
         Exec.join ex child;
         join_done := Exec.local_now ex));
  Sim.run sim;
  check_int "child ran" 3000 !child_done;
  check_bool "join returned after child" true (!join_done >= 3000)

let test_exec_switch_cost_and_counts () =
  let sim = Sim.create () in
  let ex = Exec.create sim ~ncpus:1 in
  Exec.set_cpu_params ex ~cpu:0 ~switch_cost:100 ();
  let last_end = ref 0 in
  let mk name =
    Exec.spawn ex ~cpu:0 ~name (fun () ->
        Exec.charge ex 1000;
        last_end := Exec.local_now ex)
  in
  ignore (mk "a");
  ignore (mk "b");
  ignore (mk "c");
  Sim.run sim;
  check_int "two switches" 2 (Exec.cpu_switches ex ~cpu:0);
  (* a: [0,1000); b: [1100,2100); c: [2200,3200) *)
  check_int "switch cost paid" 3200 !last_end

let test_exec_preemption () =
  let sim = Sim.create () in
  let ex = Exec.create sim ~ncpus:1 in
  Exec.set_cpu_params ex ~cpu:0 ~slice:(Some 1000) ();
  let finish = ref [] in
  let worker name () =
    (* 5 x 400 cycles; slice 1000 forces preemption while the peer queues. *)
    for _ = 1 to 5 do
      Exec.charge ex 400
    done;
    finish := name :: !finish
  in
  let a = Exec.spawn ex ~cpu:0 ~name:"a" (worker "a") in
  let b = Exec.spawn ex ~cpu:0 ~name:"b" (worker "b") in
  Sim.run sim;
  check_bool "both finished" true (List.length !finish = 2);
  check_bool "preemptions recorded" true
    (Exec.involuntary_switches a + Exec.involuntary_switches b > 0)

let test_exec_kill_blocked () =
  let sim = Sim.create () in
  let ex = Exec.create sim ~ncpus:1 in
  let cleaned = ref false in
  let victim =
    Exec.spawn ex ~cpu:0 ~name:"victim" (fun () ->
        Fun.protect
          ~finally:(fun () -> cleaned := true)
          (fun () -> Exec.block ex ~reason:"forever" (fun ~now:_ ~wake:_ -> ())))
  in
  ignore
    (Exec.spawn ex ~cpu:0 ~name:"killer" (fun () ->
         Exec.charge ex 500;
         Exec.kill ex victim));
  Sim.run sim;
  check_bool "victim unwound" true !cleaned;
  check_bool "victim finished" true (Exec.state ex victim = Exec.Finished)

(* --- Host footprint of a parked thread --- *)

(* What 16,000 threads parked in [Exec.sleep] add to the major heap's live
   words, per thread: each one's record, its continuation and the effect
   handler's closure that its fiber holds, its wake and wake-enqueue
   closures, and its share of the run queue, of the event queue holding its
   wake-up and of the executor's thread list.  The count stays fixed
   because those queues grow by doubling, so the figure depends on it.
   It measures 52.1 words in the dev and release profiles; the bound is
   that plus two words, so one more closure, option box or boxed state
   kept per parked thread fails it. *)
let parked_threads = 16_000
let max_parked_words = 54.1

let test_parked_thread_footprint () =
  let sim = Sim.create () in
  let ex = Exec.create sim ~ncpus:1 in
  let body () = Exec.sleep ex 1_000_000 in
  let live_words () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let before = live_words () in
  for _ = 1 to parked_threads do
    ignore (Exec.spawn ex ~cpu:0 ~name:"parked" body)
  done;
  Sim.run_until sim 500_000;
  let after = live_words () in
  let per_thread = float_of_int (after - before) /. float_of_int parked_threads in
  check_bool "every thread parked in sleep" true
    (List.for_all (fun th -> Exec.state ex th = Exec.Blocked "sleep") (Exec.threads ex));
  if per_thread > max_parked_words then
    Alcotest.failf "a parked thread holds %.1f live words, over %.1f" per_thread
      max_parked_words;
  Sim.run sim;
  check_bool "every thread finished" true
    (List.for_all (fun th -> Exec.state ex th = Exec.Finished) (Exec.threads ex))

(* --- Trace retention --- *)

let trace_msgs t = List.map (fun r -> r.Trace.message) (Trace.records t)

let emit t ~at ~category text =
  Trace.emit_event t ~at ~track:0 (Trace.Message { category; text })

let test_trace_capacity_drops_oldest () =
  let t = Trace.create ~enabled:true ~capacity:4 () in
  for i = 1 to 5 do
    emit t ~at:i ~category:(if i mod 2 = 0 then "even" else "odd") (string_of_int i)
  done;
  (* The fifth record overflows capacity 4: only the newest half stays. *)
  Alcotest.(check (list string)) "newest half kept, oldest first" [ "4"; "5" ] (trace_msgs t);
  Alcotest.(check (list string)) "records_in agrees" [ "5" ]
    (List.map (fun r -> r.Trace.message) (Trace.records_in t ~category:"odd"));
  check_int "count_in agrees (odd)" 1 (Trace.count_in t ~category:"odd");
  check_int "count_in agrees (even)" 1 (Trace.count_in t ~category:"even");
  emit t ~at:6 ~category:"even" "6";
  Alcotest.(check (list string)) "emission continues after the drop" [ "4"; "5"; "6" ]
    (trace_msgs t);
  Alcotest.(check (list string)) "index continues after the drop" [ "4"; "6" ]
    (List.map (fun r -> r.Trace.message) (Trace.records_in t ~category:"even"));
  check_int "count_in tracks the index" 2 (Trace.count_in t ~category:"even")

let test_trace_records_memoized () =
  let t = Trace.create ~enabled:true () in
  emit t ~at:1 ~category:"c" "a";
  emit t ~at:2 ~category:"c" "b";
  check_bool "repeat calls share the memoized list" true
    (Trace.records t == Trace.records t);
  emit t ~at:3 ~category:"c" "c";
  Alcotest.(check (list string)) "emit invalidates the memo" [ "a"; "b"; "c" ]
    (trace_msgs t)

(* --- Machine --- *)

(* Frames come from the NUMA zone of the core the allocating thread runs
   on; outside thread context the search starts at zone 0. *)
let test_machine_alloc_frame_local () =
  let machine = Machine.create () in
  let zone f = Mv_hw.Phys_mem.zone_of_frame machine.Machine.phys f in
  let zone_from core =
    let z = ref (-1) in
    ignore
      (Exec.spawn machine.Machine.exec ~cpu:core ~name:"alloc" (fun () ->
           z := zone (Machine.alloc_frame machine Mv_hw.Phys_mem.Ros_region)));
    Sim.run machine.Machine.sim;
    !z
  in
  check_int "ROS core 5 (socket 1) allocates in zone 1" 1 (zone_from 5);
  check_int "core 0 allocates in zone 0" 0 (zone_from 0);
  check_int "outside thread context: zone 0" 0
    (zone (Machine.alloc_frame machine Mv_hw.Phys_mem.Ros_region))

let suite =
  [
    ("event-queue: time order", `Quick, test_eq_order);
    ("event-queue: FIFO on ties", `Quick, test_eq_fifo_ties);
    ("event-queue: interleaved push/pop", `Quick, test_eq_interleaved);
    QCheck_alcotest.to_alcotest qcheck_eq_sorted;
    ("sim: clock tracks events", `Quick, test_sim_clock);
    ("sim: rejects past scheduling", `Quick, test_sim_no_past);
    ("sim: run_until", `Quick, test_sim_run_until);
    ("fiber: suspend/resume", `Quick, test_fiber_suspend_resume);
    ("fiber: cancel unwinds", `Quick, test_fiber_cancel);
    ("fiber: double resume rejected", `Quick, test_fiber_double_resume);
    ("exec: charge advances local time", `Quick, test_exec_charge_advances_time);
    ("exec: one cpu serializes", `Quick, test_exec_serializes_one_cpu);
    ("exec: two cpus run in parallel", `Quick, test_exec_parallel_cpus);
    ("exec: block/wake with value", `Quick, test_exec_block_wake);
    ("exec: wake respects block time", `Quick, test_exec_wake_respects_block_time);
    ("exec: sleep", `Quick, test_exec_sleep);
    ("exec: join", `Quick, test_exec_join);
    ("exec: switch cost and counts", `Quick, test_exec_switch_cost_and_counts);
    ("exec: slice preemption", `Quick, test_exec_preemption);
    ("exec: kill blocked thread", `Quick, test_exec_kill_blocked);
    ("exec: a parked thread's host footprint", `Quick, test_parked_thread_footprint);
    ("trace: capacity drops the oldest records", `Quick, test_trace_capacity_drops_oldest);
    ("trace: records memoized until next emit", `Quick, test_trace_records_memoized);
    ("machine: alloc_frame takes the current core's zone", `Quick, test_machine_alloc_frame_local);
  ]
