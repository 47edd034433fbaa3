(* The scenario registry: each entry builds a slice of the stack, runs it
   to quiescence under the given strategy/fault plan, and judges the final
   state.  The two [sc_expect_bug] entries are deliberately broken — they
   exist to prove the explorer can find and shrink real schedule and
   protocol bugs (ISSUE acceptance: a broken invariant is found within the
   default seed budget). *)

module Machine = Mv_engine.Machine
module Exec = Mv_engine.Exec
module Sim = Mv_engine.Sim
module Addr = Mv_hw.Addr
module Event_channel = Mv_hvm.Event_channel
module Fabric = Mv_hvm.Fabric
module Fault_plan = Mv_faults.Fault_plan
module Nautilus = Mv_aerokernel.Nautilus
module Env = Mv_guest.Env
module Libc = Mv_guest.Libc
open Multiverse
open Scenario

(* --- racy-wakeup: a seeded lost-wakeup bug at the engine level --- *)

(* The classic stale-check sleep: the consumer samples "mailbox empty",
   politely yields, then blocks on the {e stale} sample without
   re-checking.  Spawn order puts the producer first, so the default FIFO
   schedule delivers before the consumer ever looks — the bug only fires
   when the scheduler picks the consumer first (decision 1 at the first
   choice point), making [1] the minimal counterexample trace. *)
let racy_wakeup_run ~strategy ~faults:_ =
  let machine = make_machine () in
  let exec = machine.Machine.exec in
  Strategy.install strategy exec;
  let mailbox = Queue.create () in
  let waiting = ref None in
  let consumed = ref false in
  ignore
    (Exec.spawn exec ~cpu:0 ~name:"producer" (fun () ->
         Queue.push () mailbox;
         match !waiting with
         | Some wake ->
             waiting := None;
             wake ()
         | None -> ()));
  ignore
    (Exec.spawn exec ~cpu:0 ~name:"consumer" (fun () ->
         let empty = Queue.is_empty mailbox in
         if empty then Exec.yield exec;
         (* BUG: blocks on the pre-yield sample instead of re-checking. *)
         if empty then
           Exec.block exec ~reason:"mailbox" (fun ~now:_ ~wake ->
               waiting := Some (fun () -> wake ()));
         match Queue.take_opt mailbox with
         | Some () -> consumed := true
         | None -> ()));
  let quiesced = Sim.run_bounded machine.Machine.sim ~max_events:default_max_events in
  all
    [
      (fun () -> check_quiesced exec ~quiesced);
      (fun () -> if !consumed then Pass else Fail "item never consumed");
    ]

let racy_wakeup =
  {
    sc_name = "racy-wakeup";
    sc_descr =
      "seeded lost-wakeup bug (stale empty-check before block); FIFO passes, \
       picking the consumer first deadlocks it";
    sc_fault_specs = [];
    sc_expect_bug = true;
    sc_run = racy_wakeup_run;
  }

(* --- ping-pong: event-channel at-most-once under a lossy channel --- *)

let server_name = "chan-server"

let ping_pong_run ~dedup ~kind ~calls ~strategy ~faults =
  let machine = make_machine () in
  let exec = machine.Machine.exec in
  let hrt = List.hd (Mv_hw.Topology.cores_of machine.Machine.topo 1) in
  Strategy.install strategy exec;
  if Fault_plan.enabled faults then Fault_plan.bind faults machine;
  let faults_opt = if Fault_plan.enabled faults then Some faults else None in
  let ch =
    Event_channel.create ?faults:faults_opt ~dedup machine ~kind ~ros_core:0
      ~hrt_core:hrt
  in
  let runs = Array.make calls 0 in
  let completed = Array.make calls false in
  ignore
    (Exec.spawn exec ~cpu:0 ~name:server_name (fun () ->
         Event_channel.serve_loop ch ~on_request:(fun r -> r.Event_channel.req_run ())));
  let caller =
    Exec.spawn exec ~cpu:hrt ~name:"caller" (fun () ->
        try
          for i = 0 to calls - 1 do
            Event_channel.call ch
              {
                Event_channel.req_kind = Printf.sprintf "ping-%d" i;
                req_run = (fun () -> runs.(i) <- runs.(i) + 1);
              };
            completed.(i) <- true
          done
        with Event_channel.Channel_failure _ -> ())
  in
  let quiesced = Sim.run_bounded machine.Machine.sim ~max_events:default_max_events in
  let at_most_once () =
    let bad = ref Pass in
    Array.iteri
      (fun i n ->
        if !bad = Pass then
          if n > 1 then
            bad := failf "call %d payload executed %d times (at-most-once violated)" i n
          else if completed.(i) && n <> 1 then
            bad := failf "call %d completed but payload ran %d times" i n)
      runs;
    !bad
  in
  all
    [
      (fun () ->
        check_quiesced exec ~quiesced ~allow_blocked:(fun n -> n = server_name));
      (fun () ->
        if Exec.state exec caller = Exec.Finished then Pass
        else Fail "caller never finished");
      at_most_once;
    ]

let lossy_spec =
  {
    fs_rate = 0.3;
    fs_sites = [ Fault_plan.Chan_drop; Fault_plan.Chan_delay; Fault_plan.Chan_duplicate ];
  }

let ping_pong kind =
  let kname = match kind with Event_channel.Async -> "async" | Event_channel.Sync -> "sync" in
  {
    sc_name = "ping-pong-" ^ kname;
    sc_descr =
      Printf.sprintf
        "%s event-channel call/serve/complete round trips; at-most-once payload \
         execution must hold even under drop/delay/duplicate faults"
        kname;
    sc_fault_specs = [ lossy_spec ];
    sc_expect_bug = false;
    sc_run = (fun ~strategy ~faults -> ping_pong_run ~dedup:true ~kind ~calls:6 ~strategy ~faults);
  }

let broken_dedup =
  {
    sc_name = "broken-dedup";
    sc_descr =
      "same ping-pong protocol with server-side dedup disabled: a duplicated \
       delivery executes the payload twice (seeded at-most-once violation)";
    sc_fault_specs = [ { fs_rate = 1.0; fs_sites = [ Fault_plan.Chan_duplicate ] } ];
    sc_expect_bug = true;
    sc_run =
      (fun ~strategy ~faults ->
        ping_pong_run ~dedup:false ~kind:Event_channel.Async ~calls:6 ~strategy ~faults);
  }

(* --- fabric: batching/routing/degradation on the forwarding fabric --- *)

(* [callers] concurrent HRT-side threads hammer one fabric endpoint: while
   a leader call is in flight the rest ride the batching ring, so the
   schedule sweep exercises every leader/rider/drain interleaving and the
   slot-reclaim race.  At-most-once payload execution must hold for every
   request even when the channel drops or duplicates deliveries and the
   watchdog's Partner_kill site takes pollers down mid-run. *)
let fabric_run ~callers ~calls ~kind ~strategy ~faults =
  let machine = make_machine () in
  let exec = machine.Machine.exec in
  let hrt = List.hd (Mv_hw.Topology.cores_of machine.Machine.topo 1) in
  let pool_cores =
    match Mv_hw.Topology.ros_cores machine.Machine.topo with
    | a :: b :: _ -> [ a; b ]
    | l -> l
  in
  Strategy.install strategy exec;
  if Fault_plan.enabled faults then Fault_plan.bind faults machine;
  let fabric = Fabric.create ~faults machine ~kind in
  Fabric.start_pool fabric
    ~spawn:(fun ~name ~core body -> Exec.spawn exec ~cpu:core ~name body)
    ~cores:pool_cores ();
  let ep = Fabric.endpoint fabric ~name:"shared" ~ros_core:0 ~hrt_core:hrt in
  let runs = Array.make (callers * calls) 0 in
  let completed = Array.make (callers * calls) false in
  let threads =
    List.init callers (fun c ->
        Exec.spawn exec ~cpu:hrt ~name:(Printf.sprintf "hrt-caller-%d" c)
          (fun () ->
            for i = 0 to calls - 1 do
              let slot = (c * calls) + i in
              Fabric.call fabric ep
                {
                  Event_channel.req_kind = Printf.sprintf "req-%d-%d" c i;
                  req_run = (fun () -> runs.(slot) <- runs.(slot) + 1);
                };
              completed.(slot) <- true
            done))
  in
  ignore
    (Exec.spawn exec ~cpu:0 ~name:"coordinator" (fun () ->
         List.iter (fun th -> Exec.join exec th) threads;
         Fabric.shutdown fabric));
  let quiesced = Sim.run_bounded machine.Machine.sim ~max_events:default_max_events in
  let at_most_once () =
    let bad = ref Pass in
    Array.iteri
      (fun i n ->
        if !bad = Pass then
          if n > 1 then
            bad := failf "request %d payload executed %d times (at-most-once violated)" i n
          else if completed.(i) && n <> 1 then
            bad := failf "request %d completed but payload ran %d times" i n)
      runs;
    !bad
  in
  all
    [
      (fun () -> check_quiesced exec ~quiesced);
      (fun () ->
        if Array.for_all (fun c -> c) completed then Pass
        else Fail "a caller never finished its calls");
      at_most_once;
    ]

let fabric_batch =
  {
    sc_name = "fabric-batch";
    sc_descr =
      "four concurrent callers batching through one fabric endpoint (leader \
       rings, riders queue into the shared ring); at-most-once and bounded \
       quiescence must hold under drop/duplicate faults and poller kills";
    sc_fault_specs =
      [
        {
          fs_rate = 0.4;
          fs_sites =
            [ Fault_plan.Chan_drop; Fault_plan.Chan_duplicate; Fault_plan.Partner_kill ];
        };
      ];
    sc_expect_bug = false;
    sc_run =
      (fun ~strategy ~faults ->
        fabric_run ~callers:4 ~calls:4 ~kind:Event_channel.Async ~strategy ~faults);
  }

let fabric_degrade =
  {
    sc_name = "fabric-degrade";
    sc_descr =
      "sync fabric endpoint under heavy channel loss: calls must complete \
       exactly once through the degradation chain (sync -> async fallback, \
       then ROS-native reroute) under schedule perturbation";
    sc_fault_specs = [ { fs_rate = 0.7; fs_sites = [ Fault_plan.Chan_drop ] } ];
    sc_expect_bug = false;
    sc_run =
      (fun ~strategy ~faults ->
        fabric_run ~callers:2 ~calls:4 ~kind:Event_channel.Sync ~strategy ~faults);
  }

(* [callers] impatient HRT-side threads push through a deliberately tiny
   admission envelope (ring 2, queue 3, trickle token rate), so most
   attempts hit the gate: shed-and-retry under [Shed], park-in-FIFO under
   [Block], terminal [Overload] replies past the retry budget.  The
   oracles pin the overload contract: bounded quiescence (every parked
   admission waiter is woken — no lost wakeups), every caller resolves
   each request to exactly one of admitted/dropped, an admitted request's
   payload runs exactly once (retried sheds never double-execute), and a
   dropped request's payload never ran at all. *)
let fabric_overload_run ~policy ~callers ~calls ~strategy ~faults =
  let machine = make_machine () in
  let exec = machine.Machine.exec in
  let hrt = List.hd (Mv_hw.Topology.cores_of machine.Machine.topo 1) in
  let pool_cores =
    match Mv_hw.Topology.ros_cores machine.Machine.topo with
    | a :: b :: _ -> [ a; b ]
    | l -> l
  in
  Strategy.install strategy exec;
  if Fault_plan.enabled faults then Fault_plan.bind faults machine;
  let fabric = Fabric.create ~faults machine ~kind:Event_channel.Sync in
  Fabric.set_admission fabric
    (Some
       (Fabric.make_admission ~policy ~ring_capacity:2 ~queue_capacity:3 ~rate:1e-5
          ~burst:2 ~shed_retries:2 ()));
  Fabric.start_pool fabric
    ~spawn:(fun ~name ~core body -> Exec.spawn exec ~cpu:core ~name body)
    ~cores:pool_cores ();
  let ep = Fabric.endpoint fabric ~name:"shared" ~ros_core:0 ~hrt_core:hrt in
  let n = callers * calls in
  let runs = Array.make n 0 in
  let admitted = Array.make n false in
  let dropped = Array.make n false in
  let threads =
    List.init callers (fun c ->
        Exec.spawn exec ~cpu:hrt ~name:(Printf.sprintf "hrt-offerer-%d" c)
          (fun () ->
            for i = 0 to calls - 1 do
              let slot = (c * calls) + i in
              match
                Fabric.offer fabric ep
                  {
                    Event_channel.req_kind = Printf.sprintf "req-%d-%d" c i;
                    req_run = (fun () -> runs.(slot) <- runs.(slot) + 1);
                  }
              with
              | Ok () -> admitted.(slot) <- true
              | Error (_ : Fabric.overload) -> dropped.(slot) <- true
            done))
  in
  ignore
    (Exec.spawn exec ~cpu:0 ~name:"coordinator" (fun () ->
         List.iter (fun th -> Exec.join exec th) threads;
         Fabric.shutdown fabric));
  let quiesced = Sim.run_bounded machine.Machine.sim ~max_events:default_max_events in
  let accounted () =
    let bad = ref Pass in
    for i = 0 to n - 1 do
      if !bad = Pass then
        if admitted.(i) && dropped.(i) then
          bad := failf "request %d both admitted and dropped" i
        else if not (admitted.(i) || dropped.(i)) then
          bad := failf "request %d never resolved (offer lost the caller)" i
    done;
    !bad
  in
  let exactly_once_or_never () =
    let bad = ref Pass in
    Array.iteri
      (fun i r ->
        if !bad = Pass then
          if admitted.(i) && r <> 1 then
            bad := failf "admitted request %d payload ran %d times (want exactly 1)" i r
          else if dropped.(i) && r <> 0 then
            bad := failf "shed request %d payload ran %d times (want 0)" i r)
      runs;
    !bad
  in
  all
    [
      (fun () -> check_quiesced exec ~quiesced);
      accounted;
      exactly_once_or_never;
    ]

let fabric_overload =
  {
    sc_name = "fabric-overload";
    sc_descr =
      "six impatient callers vs a tiny shed-policy admission envelope: every \
       request resolves to admitted xor dropped, admitted payloads run exactly \
       once (retried sheds never double-execute), dropped payloads never ran, \
       and quiescence is bounded even under channel loss/duplication";
    sc_fault_specs =
      [
        {
          fs_rate = 0.3;
          fs_sites = [ Fault_plan.Chan_drop; Fault_plan.Chan_duplicate ];
        };
      ];
    sc_expect_bug = false;
    sc_run =
      (fun ~strategy ~faults ->
        fabric_overload_run ~policy:Fabric.Shed ~callers:6 ~calls:3 ~strategy ~faults);
  }

let fabric_overload_block =
  {
    sc_name = "fabric-overload-block";
    sc_descr =
      "the same overload envelope under the Block policy: callers park in the \
       bounded FIFO admission queue (overflow degrades to shedding); the parked \
       waiters must all be woken and the same admitted-exactly-once / \
       dropped-never-ran contract must hold";
    sc_fault_specs = [ { fs_rate = 0.3; fs_sites = [ Fault_plan.Chan_drop ] } ];
    sc_expect_bug = false;
    sc_run =
      (fun ~strategy ~faults ->
        fabric_overload_run ~policy:Fabric.Block ~callers:6 ~calls:3 ~strategy ~faults);
  }

(* --- full-stack scenarios: boot, execution groups, merge + forwarding --- *)

(* Daemons that legitimately stay parked after a healthy full-stack run:
   the AeroKernel event loop, any partner thread still waiting on its
   group, and fabric pollers parked on the run queue. *)
let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

let has_prefix s p =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

let full_stack_daemon name =
  name = "nk/event-loop" || contains_sub name "/partner" || has_prefix name "fabric/"

let run_full ?(options = Toolchain.default_mv_options) ~name ~expect_stdout
    ~extra_checks prog ~strategy ~faults =
  let hx = Toolchain.hybridize prog in
  let rt_box = ref None in
  let machine, _kernel, proc =
    Toolchain.setup_multiverse ~machine:(Scenario.machine ())
      ~options:{ options with Toolchain.mv_faults = faults }
      ~name ~fat:hx.Toolchain.hx_fat
      (fun _kernel _p rt ->
        rt_box := Some rt;
        let partner =
          Runtime.hrt_invoke rt ~name:"main" (fun env ->
              prog.Toolchain.prog_main env)
        in
        Runtime.join rt partner)
  in
  Strategy.install strategy machine.Machine.exec;
  let quiesced = Sim.run_bounded machine.Machine.sim ~max_events:default_max_events in
  all
    [
      (fun () ->
        check_quiesced machine.Machine.exec ~quiesced
          ~allow_blocked:full_stack_daemon);
      (fun () ->
        if not proc.Mv_ros.Process.exited then Fail "process never exited"
        else if proc.Mv_ros.Process.exit_code <> 0 then
          failf "exit code %d" proc.Mv_ros.Process.exit_code
        else Pass);
      (fun () ->
        let out = Mv_ros.Process.stdout_contents proc in
        if out = expect_stdout then Pass
        else failf "stdout mismatch: got %S, want %S" out expect_stdout);
      (fun () ->
        match !rt_box with
        | None -> Fail "runtime never initialized"
        | Some rt -> all (List.map (fun check () -> check rt) extra_checks));
    ]

let boot_prog =
  {
    Toolchain.prog_name = "mvcheck-boot";
    prog_main =
      (fun env ->
        let libc = Libc.create env in
        env.Env.work 10_000;
        ignore (env.Env.getpid ());
        Libc.printf libc "booted pid ok\n";
        Libc.flush_all libc);
  }

let boot_handshake =
  {
    sc_name = "boot-handshake";
    sc_descr =
      "full stack boot: HVM install, AeroKernel boot handshake, one forwarded \
       syscall, clean exit (swept under boot stalls and EAGAIN faults)";
    sc_fault_specs =
      [
        { fs_rate = 1.0; fs_sites = [ Fault_plan.Boot_stall ] };
        { fs_rate = 0.5; fs_sites = [ Fault_plan.Syscall_eagain ] };
      ];
    sc_expect_bug = false;
    sc_run =
      run_full ~name:"mvcheck-boot" ~expect_stdout:"booted pid ok\n"
        ~extra_checks:[] boot_prog;
  }

let group_prog =
  {
    Toolchain.prog_name = "mvcheck-groups";
    prog_main =
      (fun env ->
        let libc = Libc.create env in
        let slots = Array.make 2 0 in
        let spawn i =
          env.Env.thread_create ~name:(Printf.sprintf "worker-%d" i) (fun () ->
              let acc = ref 0 in
              for k = 1 to 6 do
                env.Env.work 20_000;
                ignore (env.Env.getrusage ());
                acc := !acc + k
              done;
              slots.(i) <- !acc)
        in
        let t0 = spawn 0 in
        let t1 = spawn 1 in
        env.Env.thread_join t0;
        env.Env.thread_join t1;
        Libc.printf libc "groups done %d %d\n" slots.(0) slots.(1);
        Libc.flush_all libc);
  }

let group_respawn =
  {
    sc_name = "group-respawn";
    sc_descr =
      "execution group spawn/join with forwarded syscalls; joins must complete \
       and results survive partner kills (watchdog respawn converges)";
    sc_fault_specs = [ { fs_rate = 0.5; fs_sites = [ Fault_plan.Partner_kill ] } ];
    sc_expect_bug = false;
    sc_run =
      run_full ~name:"mvcheck-groups" ~expect_stdout:"groups done 21 21\n"
        ~extra_checks:[] group_prog;
  }

let merge_prog =
  {
    Toolchain.prog_name = "mvcheck-merge";
    prog_main =
      (fun env ->
        let libc = Libc.create env in
        let pages = 12 in
        let len = pages * Addr.page_size in
        let base = env.Env.mmap ~len ~prot:Mv_ros.Mm.prot_rw ~kind:"mvcheck-buf" in
        for p = 0 to pages - 1 do
          env.Env.store (base + (p * Addr.page_size));
          env.Env.work 5_000
        done;
        env.Env.munmap ~addr:base ~len;
        Libc.printf libc "merge done\n";
        Libc.flush_all libc);
  }

let merge_fault =
  {
    sc_name = "merge-fault";
    sc_descr =
      "address-space merge plus lower-half page faults forwarded to the ROS; \
       every touched page must be resolved, also under a lossy channel";
    sc_fault_specs = [ { fs_rate = 0.3; fs_sites = [ Fault_plan.Chan_drop; Fault_plan.Chan_delay ] } ];
    sc_expect_bug = false;
    sc_run =
      run_full ~name:"mvcheck-merge" ~expect_stdout:"merge done\n"
        ~extra_checks:
          [
            (fun rt ->
              let forwarded = Nautilus.stats_faults_forwarded (Runtime.nk rt) in
              if forwarded >= 1 then Pass
              else failf "expected forwarded page faults, saw %d" forwarded);
          ]
        merge_prog;
  }

let many_groups_prog =
  {
    Toolchain.prog_name = "mvcheck-manygroups";
    prog_main =
      (fun env ->
        let libc = Libc.create env in
        let n = 4 in
        let slots = Array.make n 0 in
        let spawn i =
          env.Env.thread_create ~name:(Printf.sprintf "grp-%d" i) (fun () ->
              let acc = ref 0 in
              for k = 1 to 4 do
                env.Env.work 15_000;
                ignore (env.Env.getrusage ());
                acc := !acc + k
              done;
              slots.(i) <- !acc)
        in
        let ts = List.init n spawn in
        List.iter env.Env.thread_join ts;
        Libc.printf libc "many %d %d %d %d\n" slots.(0) slots.(1) slots.(2) slots.(3);
        Libc.flush_all libc);
  }

let multi_group =
  {
    sc_name = "multi-group";
    sc_descr =
      "four concurrent execution groups routed over the shared poller pool \
       (more groups than dedicated servers); every forwarded syscall must \
       complete and every join converge, also under loss and poller kills";
    sc_fault_specs =
      [ { fs_rate = 0.3; fs_sites = [ Fault_plan.Chan_drop; Fault_plan.Partner_kill ] } ];
    sc_expect_bug = false;
    sc_run =
      run_full ~name:"mvcheck-manygroups" ~expect_stdout:"many 10 10 10 10\n"
        ~extra_checks:
          [
            (fun rt ->
              let groups = Runtime.groups_created rt in
              if groups >= 5 then Pass
              else failf "expected >= 5 execution groups, saw %d" groups);
            (fun rt ->
              let calls = Fabric.calls (Runtime.fabric rt) in
              if calls >= 16 then Pass
              else failf "expected >= 16 fabric calls, saw %d" calls);
          ]
        many_groups_prog;
  }

(* --- merge-stale-pml4: huge leaves across a stale lower-half re-merge --- *)

(* The merger copies PML4 slots, so when the ROS rebuilds its lower half
   (new top-level slots, same virtual addresses) the HRT's copy still
   points at the {e old} sub-trees: the access would resolve — to stale
   frames — with no fault to catch.  The generation guard in
   [Nautilus.access] must notice the source table's lower-half generation
   moved and re-merge before translating.  Huge leaves raise the stakes:
   one stale 2M slot mistranslates 512 pages at once, and the re-merge
   must preserve the leaf rather than demoting it. *)
let merge_stale_pml4_run ~strategy ~faults:_ =
  let machine = make_machine () in
  let exec = machine.Machine.exec in
  let hrt = List.hd (Mv_hw.Topology.cores_of machine.Machine.topo 1) in
  Strategy.install strategy exec;
  let nk = Nautilus.create machine in
  let ros_pt = Mv_hw.Page_table.create () in
  let addr = Addr.of_indices ~pml4:0 ~pdpt:0 ~pd:5 ~pt:0 ~offset:0 in
  let map_chunk frame =
    Mv_hw.Page_table.map_size ros_pt addr ~size:Mv_hw.Page_table.S2m ~frame
      ~flags:Mv_hw.Page_table.(f_present lor f_writable lor f_user)
  in
  map_chunk 1000;
  let unexpected_faults = ref 0 in
  Nautilus.set_services nk
    {
      Nautilus.svc_forward_fault =
        (fun _addr ~write:_ ->
          incr unexpected_faults;
          Nautilus.Fault_fixed);
      svc_forward_syscall = (fun _ run -> run ());
      svc_request_remerge = (fun () -> ros_pt);
    };
  ignore
    (Exec.spawn exec ~cpu:hrt ~name:"hrt" (fun () ->
         Nautilus.boot nk;
         Nautilus.merge_lower_half nk ~from:ros_pt;
         Nautilus.access nk addr ~write:true;
         (* The ROS rebuilds its lower half: same addresses, fresh PML4
            slots, different frames.  No fault will announce this. *)
         Mv_hw.Page_table.clear_lower_half ros_pt;
         map_chunk 2000;
         Nautilus.access nk addr ~write:true));
  let quiesced = Sim.run_bounded machine.Machine.sim ~max_events:default_max_events in
  all
    [
      (fun () ->
        check_quiesced exec ~quiesced ~allow_blocked:(fun name ->
            name = "nk/event-loop"));
      (fun () ->
        match fst (Mv_hw.Page_table.walk_sized (Nautilus.page_table nk) addr) with
        | Some (pte, Mv_hw.Page_table.S2m) when pte.Mv_hw.Page_table.frame = 2000 -> Pass
        | Some (pte, size) ->
            failf "HRT resolves frame %d as %s (want 2000 as 2M)"
              pte.Mv_hw.Page_table.frame
              (Format.asprintf "%a" Mv_hw.Page_table.pp_size size)
        | None -> Fail "HRT no longer maps the chunk after re-merge");
      (fun () ->
        if Nautilus.stats_remerges nk >= 1 then Pass
        else Fail "generation guard never re-merged: stale translation went silent");
      (fun () ->
        if Nautilus.stats_silent_writes nk = 0 then Pass
        else failf "%d silent writes" (Nautilus.stats_silent_writes nk));
      (fun () ->
        if !unexpected_faults = 0 then Pass
        else failf "%d unexpected forwarded faults" !unexpected_faults);
    ]

let merge_stale_pml4 =
  {
    sc_name = "merge-stale-pml4";
    sc_descr =
      "re-merge after the ROS rebuilds lower-half PML4 slots holding 2M \
       leaves: the generation guard must catch the silent stale \
       translation and the re-merge must preserve the huge leaf";
    sc_fault_specs = [];
    sc_expect_bug = false;
    sc_run = merge_stale_pml4_run;
  }

(* --- work-steal: deterministic stealing across per-core runqueues --- *)

(* All jobs spawn on the first ROS core with the rest of the partition
   idle, so any job that executes elsewhere got there by stealing; the
   schedule sweep drives the [sh_steal] victim choice, exploring different
   steal interleavings.  Oracles, checked from runqueue snapshots taken by
   a monitor on an HRT core (outside the steal domain):

   - no lost wakeups: a waiter parked on the loaded core is woken by the
     last job and the system quiesces with everything finished;
   - a fiber is never on two runqueues at once;
   - FIFO within a runqueue: a thief only steals into an {e empty} queue
     and stealing takes the oldest prefix, so every ROS runqueue is at all
     times a contiguous slice of the original spawn order — straight-line
     jobs must appear in ascending spawn order in every snapshot;
   - stealing never crosses the partition boundary: jobs only ever run on
     ROS cores. *)
let work_steal_run ~strategy ~faults:_ =
  let machine = make_machine ~work_stealing:true () in
  let exec = machine.Machine.exec in
  Strategy.install strategy exec;
  let topo = machine.Machine.topo in
  let ros = Array.of_list (Mv_hw.Topology.ros_cores topo) in
  let hrt = List.hd (Mv_hw.Topology.cores_of topo 1) in
  let njobs = 12 in
  let runs = Array.make njobs 0 in
  let ran_on = Array.make njobs (-1) in
  let job_of_tid = Hashtbl.create 16 in
  let done_jobs = ref 0 in
  let woken = ref false in
  let wake_pending = ref false in
  let parked = ref None in
  ignore
    (Exec.spawn exec ~cpu:ros.(0) ~name:"waiter" (fun () ->
         (* The pending check and the block are one host-atomic segment,
            so the wake cannot slip between them. *)
         if not !wake_pending then
           Exec.block exec ~reason:"parked" (fun ~now:_ ~wake -> parked := Some wake);
         woken := true));
  for i = 0 to njobs - 1 do
    let th =
      Exec.spawn exec ~cpu:ros.(0)
        ~name:(Printf.sprintf "job-%d" i)
        (fun () ->
          runs.(i) <- runs.(i) + 1;
          ran_on.(i) <- Exec.cpu_of (Exec.self exec);
          (* Uneven service times keep the queues imbalanced so steal
             opportunities persist deep into the run (all well under the
             ROS timeslice: a preemption would requeue and break the
             contiguous-slice argument). *)
          Machine.charge machine (300 * ((i mod 5) + 1));
          if i = njobs - 1 then (
            match !parked with
            | Some wake ->
                parked := None;
                wake ()
            | None -> wake_pending := true);
          incr done_jobs)
    in
    Hashtbl.replace job_of_tid (Exec.tid th) i
  done;
  let snapshot_bad = ref None in
  let note_bad msg = if !snapshot_bad = None then snapshot_bad := Some msg in
  let check_snapshot () =
    let seen = Hashtbl.create 32 in
    Array.iter
      (fun c ->
        let last_job = ref (-1) in
        List.iter
          (fun th ->
            let tid = Exec.tid th in
            (match Hashtbl.find_opt seen tid with
            | Some c' ->
                note_bad
                  (Printf.sprintf "tid %d on the runqueues of cores %d and %d at once" tid
                     c' c)
            | None -> Hashtbl.replace seen tid c);
            match Hashtbl.find_opt job_of_tid tid with
            | Some j ->
                if j < !last_job then
                  note_bad
                    (Printf.sprintf
                       "core %d runqueue holds job %d behind job %d (FIFO broken)" c j
                       !last_job);
                last_job := max !last_job j
            | None -> ())
          (Exec.runq exec ~cpu:c))
      ros
  in
  ignore
    (Exec.spawn exec ~cpu:hrt ~name:"monitor" (fun () ->
         while !done_jobs < njobs do
           check_snapshot ();
           Exec.sleep exec 100
         done;
         check_snapshot ()));
  let quiesced = Sim.run_bounded machine.Machine.sim ~max_events:default_max_events in
  all
    [
      (fun () -> check_quiesced exec ~quiesced);
      (fun () -> if !woken then Pass else Fail "waiter never woke (lost wakeup)");
      (fun () -> match !snapshot_bad with None -> Pass | Some m -> Fail m);
      (fun () ->
        let bad = ref Pass in
        Array.iteri
          (fun i n -> if !bad = Pass && n <> 1 then bad := failf "job %d ran %d times" i n)
          runs;
        !bad);
      (fun () ->
        let bad = ref Pass in
        Array.iteri
          (fun i c ->
            if !bad = Pass && not (Array.exists (fun r -> r = c) ros) then
              bad := failf "job %d ran on core %d, outside the ROS partition" i c)
          ran_on;
        !bad);
    ]

let work_steal =
  {
    sc_name = "work-steal";
    sc_descr =
      "deterministic work stealing across per-core runqueues: no lost \
       wakeups, no fiber on two queues, FIFO within a runqueue, steals \
       never cross the partition boundary";
    sc_fault_specs = [];
    sc_expect_bug = false;
    sc_run = work_steal_run;
  }

(* --- repartition: dynamic core lending between HRT partitions --- *)

(* Geometry [2;1]: partition 1 owns two cores and lends its second to
   partition 2, then reclaims it.  The lend happens while the core's
   runqueue still holds queued jobs and a wake-enqueue for a parked waiter
   is in flight.  Oracles:

   - no lost wakeup: the waiter woken just before the lend still runs
     (its pending enqueue must follow the re-homed thread);
   - no stranded fiber: the lent core's runqueue is empty of pre-lend
     work from the instant the lend returns until the reclaim;
   - FIFO across the drain: the jobs still queued when the core moves
     land on the sibling in their original spawn order (the strategy may
     permute completion, but never the queue);
   - exclusive ownership: at every monitor snapshot each core belongs to
     exactly one partition handle, consistent with [partition_of];
   - fabric re-home: the endpoint bound to the lent core moves to the
     source partition's remaining core and still serves calls;
   - the destination partition can schedule onto the adopted core, and
     the reclaim returns the core home. *)
let repartition_run ~strategy ~faults:_ =
  let module Hvm = Mv_hvm.Hvm in
  let module Topology = Mv_hw.Topology in
  let machine =
    (* The [2;1]+ROS carve needs at least four cores; below that, fall
       back to the reference box rather than reject the sweep. *)
    let installed = Scenario.machine () in
    if installed.sockets * installed.cores_per_socket >= 4 then
      make_machine ~partitions:[ 2; 1 ] ~work_stealing:true ()
    else
      Machine.create
        ~config:{ Machine.default_config with partitions = [ 2; 1 ]; work_stealing = true }
        ()
  in
  let exec = machine.Machine.exec in
  Strategy.install strategy exec;
  let topo = machine.Machine.topo in
  let ros0 = List.hd (Topology.ros_cores topo) in
  let c1a, lendc =
    match Topology.cores_of topo 1 with
    | [ a; b ] -> (a, b)
    | l -> failwith (Printf.sprintf "partition 1 has %d cores" (List.length l))
  in
  let kernel = Mv_ros.Kernel.create machine in
  let hvm = Hvm.create machine ~ros:kernel in
  let nk1 = Mv_aerokernel.Nautilus.create ~part:1 machine in
  let nk2 = Mv_aerokernel.Nautilus.create ~part:2 machine in
  let fabric = Fabric.create machine ~kind:Event_channel.Async in
  Fabric.start_pool fabric
    ~spawn:(fun ~name ~core body -> Exec.spawn exec ~cpu:core ~name body)
    ~cores:(Topology.ros_cores topo) ();
  Hvm.on_repartition hvm (fun ~core ~src:_ ~dst:_ ->
      let ros_to = match Topology.ros_cores topo with c :: _ -> Some c | [] -> None in
      let hrt_to = match Topology.cores_of topo 1 with c :: _ -> Some c | [] -> None in
      ignore (Fabric.rehome_core fabric ~core ?ros_to ?hrt_to ()));
  let ep = Fabric.endpoint fabric ~name:"grp" ~ros_core:ros0 ~hrt_core:lendc in
  let njobs = 8 in
  let runs = Array.make njobs 0 in
  let drained_order = ref [] in
  let job_tids = Hashtbl.create 16 in
  let done_jobs = ref 0 in
  let woken = ref false in
  let parked = ref None in
  let lent = ref false in
  let reclaimed = ref false in
  let stranded = ref None in
  let exclusive_bad = ref None in
  let ep_after_lend = ref (-1) in
  let runq_after_lend = ref (-1) in
  let p2_ran_on = ref (-1) in
  let fabric_runs = ref 0 in
  let note r msg = if !r = None then r := Some msg in
  let check_ownership () =
    let n = Topology.ncores topo in
    let owners = Array.make n 0 in
    List.iter
      (fun p ->
        List.iter (fun c -> owners.(c) <- owners.(c) + 1) (Mv_hw.Partition.cores p))
      (Topology.partitions topo);
    Array.iteri
      (fun c k ->
        if k <> 1 then
          note exclusive_bad (Printf.sprintf "core %d belongs to %d partitions" c k)
        else if
          not
            (List.mem c (Topology.cores_of topo (Topology.partition_of topo c)))
        then
          note exclusive_bad
            (Printf.sprintf "core %d: partition_of disagrees with the handle" c))
      owners
  in
  let check_stranded () =
    if !lent && not !reclaimed then
      List.iter
        (fun th ->
          if Hashtbl.mem job_tids (Exec.tid th) then
            note stranded
              (Printf.sprintf "job tid %d stranded on lent core %d" (Exec.tid th) lendc))
        (Exec.runq exec ~cpu:lendc)
  in
  let wake_pending = ref false in
  let ctl_done = ref false in
  ignore
    (Exec.spawn exec ~cpu:ros0 ~name:"ctl" (fun () ->
         (* Installed but not booted: the boot's milliseconds of virtual
            time would let the polling monitor below eat the whole event
            budget, and lending only needs the instances registered. *)
         Hvm.install_hrt_image hvm ~image_kb:64 nk1;
         Hvm.install_hrt_image hvm ~image_kb:64 nk2;
         ignore
           (Exec.spawn exec ~cpu:lendc ~name:"waiter" (fun () ->
                (* The pending check and the block are one host-atomic
                   segment, so the wake cannot slip between them. *)
                if not !wake_pending then
                  Exec.block exec ~reason:"parked" (fun ~now:_ ~wake ->
                      parked := Some wake);
                woken := true));
         for i = 0 to njobs - 1 do
           let th =
             Exec.spawn exec ~cpu:lendc
               ~name:(Printf.sprintf "job-%d" i)
               (fun () ->
                 runs.(i) <- runs.(i) + 1;
                 Machine.charge machine (400 * ((i mod 3) + 1));
                 incr done_jobs)
           in
           Hashtbl.replace job_tids (Exec.tid th) i
         done;
         ignore
           (Exec.spawn exec ~cpu:c1a ~name:"monitor" (fun () ->
                while not !ctl_done do
                  check_ownership ();
                  check_stranded ();
                  Exec.sleep exec 150
                done;
                check_ownership ()));
         Exec.sleep exec 900;
         (* Wake the parked waiter and lend in the same host segment: the
            wake-enqueue event is still in flight when the core moves, so
            it must follow the re-homed thread. *)
         (match !parked with
         | Some wake ->
             parked := None;
             wake ()
         | None -> wake_pending := true);
         Hvm.lend_core hvm ~core:lendc ~dst:2;
         lent := true;
         runq_after_lend :=
           List.length
             (List.filter
                (fun th -> Hashtbl.mem job_tids (Exec.tid th))
                (Exec.runq exec ~cpu:lendc));
         (* Same host segment as the lend: this is exactly the drain's
            output order on the sibling, before any dispatch touches it. *)
         drained_order :=
           List.filter_map
             (fun th -> Hashtbl.find_opt job_tids (Exec.tid th))
             (Exec.runq exec ~cpu:c1a);
         ep_after_lend := Event_channel.hrt_core (Fabric.channel ep);
         (* The destination partition schedules onto its adopted core. *)
         let p2 =
           Nautilus.create_thread_local nk2 ~name:"p2-job" ~core:lendc (fun () ->
               p2_ran_on := Exec.cpu_of (Exec.self exec);
               Machine.charge machine 500)
         in
         (* The re-homed endpoint still serves calls end to end. *)
         let caller =
           Exec.spawn exec ~cpu:c1a ~name:"caller" (fun () ->
               Fabric.call fabric ep
                 { Event_channel.req_kind = "probe"; req_run = (fun () -> incr fabric_runs) })
         in
         Exec.join exec p2;
         Exec.join exec caller;
         while !done_jobs < njobs || not !woken do
           Exec.sleep exec 200
         done;
         Hvm.reclaim_core hvm ~core:lendc;
         reclaimed := true;
         Fabric.shutdown fabric;
         ctl_done := true));
  let quiesced = Sim.run_bounded machine.Machine.sim ~max_events:default_max_events in
  all
    [
      (fun () ->
        check_quiesced exec ~quiesced ~allow_blocked:(fun name -> name = "nk/event-loop"));
      (fun () -> if !woken then Pass else Fail "waiter never woke (lost wakeup)");
      (fun () -> match !stranded with None -> Pass | Some m -> Fail m);
      (fun () -> match !exclusive_bad with None -> Pass | Some m -> Fail m);
      (fun () ->
        let bad = ref Pass in
        Array.iteri
          (fun i n -> if !bad = Pass && n <> 1 then bad := failf "job %d ran %d times" i n)
          runs;
        !bad);
      (fun () ->
        let rec ascending = function
          | a :: (b :: _ as rest) ->
              if a > b then
                failf "jobs %d and %d drained out of spawn order" a b
              else ascending rest
          | _ -> Pass
        in
        ascending !drained_order);
      (fun () ->
        if !runq_after_lend = 0 then Pass
        else failf "%d entries left on the lent core's runqueue" !runq_after_lend);
      (fun () ->
        if !ep_after_lend = c1a then Pass
        else failf "endpoint hrt core is %d after the lend (want %d)" !ep_after_lend c1a);
      (fun () ->
        if !p2_ran_on = lendc then Pass
        else failf "partition-2 job ran on core %d (want adopted core %d)" !p2_ran_on lendc);
      (fun () -> if !fabric_runs = 1 then Pass else failf "probe ran %d times" !fabric_runs);
      (fun () ->
        if Hvm.lends hvm = 1 && Hvm.reclaims hvm = 1 then Pass
        else failf "lends=%d reclaims=%d (want 1/1)" (Hvm.lends hvm) (Hvm.reclaims hvm));
      (fun () ->
        if Topology.partition_of topo lendc = 1 then Pass
        else failf "core %d ended in partition %d (want home 1)" lendc
          (Topology.partition_of topo lendc));
    ]

let repartition =
  {
    sc_name = "repartition";
    sc_descr =
      "dynamic core lending between two HRT partitions: runqueue drained \
       FIFO onto a sibling, in-flight wakeups follow the re-home, no fiber \
       stranded, exclusive core ownership at every step, fabric endpoints \
       re-routed, and the reclaim returns the core home";
    sc_fault_specs = [];
    sc_expect_bug = false;
    sc_run = repartition_run;
  }

let all_scenarios =
  [
    racy_wakeup;
    ping_pong Event_channel.Async;
    ping_pong Event_channel.Sync;
    broken_dedup;
    fabric_batch;
    fabric_degrade;
    fabric_overload;
    fabric_overload_block;
    boot_handshake;
    group_respawn;
    merge_fault;
    merge_stale_pml4;
    multi_group;
    work_steal;
    repartition;
  ]

let find name = List.find_opt (fun sc -> sc.sc_name = name) all_scenarios
