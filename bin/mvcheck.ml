(* mvcheck: the schedule-exploration model checker CLI.

   Scenarios build a slice of the Multiverse stack and run it under
   explicit scheduling control (see lib/check).  `run` sweeps random
   schedules and fault plans looking for invariant violations, shrinks any
   failure to a minimal (seed, choice-trace) and writes a replayable
   counterexample artifact; `replay` re-executes one.  `golden` prints the
   canonical traced run used by the golden regression test. *)

module Args = Mv_util.Args
module Machine = Mv_engine.Machine
module Explore = Mv_check.Explore
module Scenario = Mv_check.Scenario
module Scenarios = Mv_check.Scenarios

let list_scenarios () =
  List.iter
    (fun sc ->
      Printf.printf "%-16s %s%s\n" sc.Scenario.sc_name
        (if sc.Scenario.sc_expect_bug then "[expected-bug] " else "")
        sc.Scenario.sc_descr)
    Scenarios.all_scenarios;
  0

let print_counterexample cx =
  print_string (Explore.to_artifact cx);
  if not cx.Explore.cx_confirmed then
    print_endline "WARNING: replay did not reproduce the original failure"

let save_artifact path cx =
  let oc = open_out path in
  output_string oc (Explore.to_artifact cx);
  close_out oc;
  Printf.printf "counterexample written to %s\n" path

(* A scenario "behaves" when exploration finds a bug iff one is seeded.
   The process exits 0 only if every selected scenario behaves. *)
let run_scenario ~pool ~seeds ~shrink_budget ~out sc =
  let r =
    match pool with
    | None -> Explore.explore ~seeds ~shrink_budget sc
    | Some pool -> Explore.explore_par ~pool ~seeds ~shrink_budget sc
  in
  match (r.Explore.ex_counterexample, sc.Scenario.sc_expect_bug) with
  | Some cx, expected ->
      Printf.printf "%s: FAILURE after %d runs%s\n" sc.Scenario.sc_name
        r.Explore.ex_runs
        (if expected then " (expected: seeded bug found)" else "");
      print_counterexample cx;
      Option.iter (fun path -> save_artifact path cx) out;
      expected
  | None, true ->
      Printf.printf "%s: seeded bug NOT found in %d runs (seed budget %d)\n"
        sc.Scenario.sc_name r.Explore.ex_runs seeds;
      false
  | None, false ->
      Printf.printf "%s: no violation in %d runs\n" sc.Scenario.sc_name
        r.Explore.ex_runs;
      true

let run_scenarios name seeds shrink_budget jobs (sockets, cores_per_socket) partitions out =
  let machine = { Machine.default_config with sockets; cores_per_socket; partitions } in
  let selected =
    Result.bind (Machine.check_config machine) (fun () ->
        match Option.value name ~default:"all" with
        | "all" -> Ok Scenarios.all_scenarios
        | name -> (
            match Scenarios.find name with
            | Some sc -> Ok [ sc ]
            | None -> Error (Printf.sprintf "unknown scenario %S (try `mvcheck list')" name)))
  in
  match selected with
  | Error msg ->
      prerr_endline ("mvcheck run: " ^ msg);
      2
  | Ok scenarios when jobs < 1 ->
      Printf.eprintf "mvcheck run: --jobs %d: need at least 1\n" jobs;
      ignore scenarios;
      2
  | Ok _ when seeds < 0 ->
      Printf.eprintf "mvcheck run: --seeds %d: need at least 0\n" seeds;
      2
  | Ok scenarios ->
      (* Install the machine before the sweep (and before any worker
         domains spawn) so every scenario machine sees it. *)
      Scenario.set_machine machine;
      let pool = if jobs > 1 then Some (Mv_host_par.Pool.create ~jobs) else None in
      let verdicts =
        Fun.protect
          ~finally:(fun () -> Option.iter Mv_host_par.Pool.shutdown pool)
          (fun () ->
            (* Every scenario runs and reports, even after a failure:
               List.for_all would short-circuit and both truncate the
               report and let a late failure decide the exit code alone. *)
            List.map (run_scenario ~pool ~seeds ~shrink_budget ~out) scenarios)
      in
      if List.for_all Fun.id verdicts then 0
      else begin
        prerr_endline "mvcheck run: scenario check failed";
        1
      end

let replay path =
  match Explore.of_artifact (In_channel.with_open_bin path In_channel.input_all) with
  | exception Sys_error msg ->
      Printf.eprintf "mvcheck replay: %s\n" msg;
      2
  | Error msg ->
      Printf.eprintf "mvcheck replay: %s: %s\n" path msg;
      2
  | Ok cx -> (
      match Scenarios.find cx.Explore.cx_scenario with
      | None ->
          Printf.eprintf "mvcheck replay: unknown scenario %S\n" cx.Explore.cx_scenario;
          2
      | Some sc -> (
          match Explore.replay sc cx with
          | Scenario.Fail msg, _ ->
              Printf.printf "reproduced: %s\n" msg;
              if msg <> cx.Explore.cx_message then
                Printf.printf "note: artifact recorded %S\n" cx.Explore.cx_message;
              0
          | Scenario.Pass, _ ->
              prerr_endline "mvcheck replay: replay PASSED: counterexample did not reproduce";
              1))

let golden show_stdout =
  if show_stdout then print_string (Mv_check.Golden.stdout_string ())
  else print_string (Mv_check.Golden.trace_string ());
  0

let () =
  let open Args in
  let list_cmd =
    cmd "list" ~doc:"List the checkable scenarios" (const ()) (fun () ->
        list_scenarios ())
  in
  let run_cmd =
    cmd "run" ~doc:"Explore schedules/fault plans; shrink and report any violation"
      (const run_scenarios
      $ pos string ~index:0 ~docv:"SCENARIO" ~doc:"Scenario name, or 'all' (default)."
      $ opt int ~default:20 ~names:[ "seeds" ] ~docv:"N"
          ~doc:"Random schedule seeds to sweep per fault shape."
      $ opt int ~default:300 ~names:[ "shrink-budget" ] ~docv:"N"
          ~doc:"Max extra runs spent shrinking a failing trace."
      $ opt int ~default:1 ~names:[ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Worker domains for the schedule sweep (default 1 = sequential). \
             Verdicts, counterexamples and run counts are identical at any N."
      $ opt topology
          ~default:(Machine.default_config.sockets, Machine.default_config.cores_per_socket)
          ~names:[ "topology" ] ~docv:"SxC"
          ~doc:
            "Run every scenario machine on this geometry \
             (SOCKETSxCORES_PER_SOCKET, e.g. 4x32) instead of the reference \
             2x4 box."
      $ opt partitions ~default:Machine.default_config.partitions ~names:[ "partitions" ]
          ~docv:"SPEC"
          ~doc:
            "Carve the scenario machines' HRT side into this elastic \
             partition spec (comma-separated core counts, e.g. 2,1) \
             instead of the single default HRT partition.  Scenarios that \
             fix their own geometry (repartition) ignore it.  Must leave \
             at least one ROS core."
      $ opt_opt string ~names:[ "out"; "o" ] ~docv:"FILE"
          ~doc:"Write the counterexample artifact to FILE.")
      (fun code -> code)
  in
  let replay_cmd =
    cmd "replay" ~doc:"Re-execute a counterexample artifact"
      (const replay
      $ pos_req string ~index:0 ~docv:"FILE"
          ~doc:"Counterexample artifact produced by `mvcheck run'.")
      (fun code -> code)
  in
  let golden_cmd =
    cmd "golden" ~doc:"Print the canonical traced multiverse run (golden-file regen)"
      (const golden
      $ flag ~names:[ "stdout" ]
          ~doc:"Print the run's guest stdout instead of the machine trace.")
      (fun code -> code)
  in
  exit
    (run_group ~name:"mvcheck"
       ~doc:
         "Deterministic schedule-exploration model checker for the Multiverse \
          runtime"
       [ list_cmd; run_cmd; replay_cmd; golden_cmd ]
       (List.tl (Array.to_list Sys.argv)))
