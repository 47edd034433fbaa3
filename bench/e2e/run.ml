(* The end-to-end benchmark: five workloads, end-to-end metrics measured
   untraced, per-layer metrics from a separate traced run.

   One workload, in this process (the last line of stdout is the JSON
   result):
     dune exec --profile release -- ./bench/e2e/run.exe --workload hybrid-gc \
       --seed 42 --seconds 15 --trace 0

   Every workload, each in a fresh child process, one at a time:
     dune exec --profile release -- ./bench/e2e/run.exe --seed 42 \
       [--repeat N] [--trace 1] [--out FILE]

   See README.md for the workloads and the meaning of every metric. *)

module W = Workloads
module C = Catalogue
module Args = Mv_util.Args

let now = Unix.gettimeofday
let num v = Json.to_string (Json.Num v)

(* Quartiles and median as Python's statistics.quantiles(xs, n=4) gives
   them (the "exclusive" method), so compare.py and this program agree. *)
let quartiles xs =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  if n = 0 then invalid_arg "quartiles: no samples"
  else if n = 1 then (a.(0), a.(0), a.(0))
  else
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 2, q 3)

let median xs =
  let _, m, _ = quartiles xs in
  m

(* --- one workload in this process ------------------------------------ *)

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;  (* catalogue order *)
}

(* Set-up time as a user meets it: start a fresh process that builds the
   workload's inputs, warms up and exits, and time it from spawn to exit.
   Children run one at a time. *)
let setup_seconds ~workload ~seed ~smoke k =
  let exe = Sys.executable_name in
  let args =
    [ exe; "--workload"; workload; "--seed"; string_of_int seed; "--setup-only" ]
    @ if smoke then [ "--smoke" ] else []
  in
  List.init k (fun _ ->
      let t0 = now () in
      let pid = Unix.create_process exe (Array.of_list args) Unix.stdin Unix.stdout Unix.stderr in
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> now () -. t0
      | _ -> failwith (workload ^ ": set-up child failed"))

(* Where a traced pass's host time goes, by the layer each wrapped call
   enters: the simulator outside the Racket VM, the VM, the checker. *)
let layer_of name =
  let prefix p = String.length name >= String.length p && String.sub name 0 (String.length p) = p in
  if prefix "Engine." then Some "racket.self_frac"
  else if prefix "Toolchain.run_" || prefix "Loadgen." then Some "engine.self_frac"
  else if prefix "Explore." then Some "check.self_frac"
  else None

let self_fractions spans ~wall =
  List.fold_left
    (fun acc (s : Spans.span) ->
      match layer_of s.name with
      | None -> acc
      | Some key ->
          let prev = Option.value (List.assoc_opt key acc) ~default:0. in
          (key, prev +. (Spans.self_seconds spans s /. wall)) :: List.remove_assoc key acc)
    [ ("engine.self_frac", 0.); ("racket.self_frac", 0.); ("check.self_frac", 0.) ]
    spans

type measured = {
  wall : float;
  words : float;
  pass : W.pass;
  layer_host : (string * float) list;
  spans : Spans.span list;  (* traced passes only *)
}

(* Per-key medians over passes of association lists. *)
let medians lists =
  match lists with
  | [] -> []
  | first :: _ ->
      List.map (fun (k, _) -> (k, median (List.filter_map (List.assoc_opt k) lists))) first

let hybridize_probe_ms () =
  let prog = { Multiverse.Toolchain.prog_name = "probe"; prog_main = (fun _ -> ()) } in
  median
    (List.init 5 (fun _ ->
         let t0 = now () in
         ignore (Sys.opaque_identity (Multiverse.Toolchain.hybridize prog));
         (now () -. t0) *. 1e3))

let run_workload ~size ~seed ~seconds ~trace ~chrome (w : W.t) =
  let smoke = size = W.Smoke in
  let setup = if trace then [] else setup_seconds ~workload:w.name ~seed ~smoke (if smoke then 1 else 5) in
  let spans = Spans.create () in
  let pass = w.prepare size ~seed spans in
  (* The heap's high-water mark after the first pass: later passes repeat
     the same work, and reading it there keeps it independent of how
     many passes fit in the measuring time. *)
  let peak_words = ref 0 in
  let measure kind =
    let traced = kind = W.Traced in
    Spans.clear spans;
    Spans.set_enabled spans traced;
    let w0 = Gc.minor_words () in
    let t0 = now () in
    let p = pass kind in
    let wall = now () -. t0 in
    let words = Gc.minor_words () -. w0 in
    Spans.set_enabled spans false;
    if !peak_words = 0 then peak_words := (Gc.quick_stat ()).Gc.top_heap_words;
    let recorded = Spans.spans spans in
    let layer_host =
      if traced then
        self_fractions recorded ~wall @ p.W.host
        @ [ ("obs.bench_spans", float_of_int (List.length recorded)) ]
      else []
    in
    { wall; words; pass = p; layer_host; spans = recorded }
  in
  (* Untraced passes, alternating with traced ones in a traced run, until
     the measuring time is spent. *)
  let t_start = now () in
  let rec loop us ts =
    let enough = us <> [] && ((not trace) || ts <> []) && now () -. t_start >= seconds in
    if enough then (List.rev us, List.rev ts)
    else if trace && List.length ts < List.length us then loop us (measure W.Traced :: ts)
    else loop (measure W.Untraced :: us) ts
  in
  let us, ts = loop [] [] in
  let all = us @ ts in
  let reference = (List.hd us).pass.W.sim in
  let mismatches =
    List.concat_map
      (fun m ->
        List.filter_map
          (fun (k, v) ->
            match List.assoc_opt k m.pass.W.sim with
            | Some v' when v' = v -> None
            | _ -> Some (Printf.sprintf "%s: %s is not the same in every pass" w.name k))
          reference)
      all
  in
  let problems = List.concat_map (fun m -> m.pass.W.problems) all @ List.sort_uniq compare mismatches in
  List.iter prerr_endline problems;
  let attempted = List.fold_left (fun a m -> a + m.pass.W.attempted) 0 all in
  let failed = List.fold_left (fun a m -> a + m.pass.W.failed) 0 all in
  let host_s = median (List.map (fun m -> m.wall) us) in
  let computed =
    if not trace then
      [
        ("host_s", host_s);
        ("setup_s", median setup);
        ("peak_heap_mb", float_of_int (!peak_words * (Sys.word_size / 8)) /. 1e6);
      ]
    else
      let per_event f = if (List.hd us).pass.W.events = 0 then 0. else median (List.map f us) in
      Option.iter
        (fun path ->
          let last = List.nth ts (List.length ts - 1) in
          Out_channel.with_open_text path (fun oc -> output_string oc (Spans.to_chrome last.spans)))
        chrome;
      reference
      @ List.filter (fun (k, _) -> not (List.mem_assoc k reference)) (List.hd ts).pass.W.sim
      @ medians (List.map (fun m -> m.layer_host) ts)
      @ [
          ("engine.kevents_per_s", per_event (fun m -> float_of_int m.pass.W.events /. m.wall /. 1e3));
          ("engine.minor_words_per_event", per_event (fun m -> m.words /. float_of_int m.pass.W.events));
          ("obs.trace_overhead_frac", (median (List.map (fun m -> m.wall) ts) /. host_s) -. 1.);
          ("multiverse.hybridize_ms", hybridize_probe_ms ());
        ]
  in
  let catalogue = if trace then C.per_layer else C.end_to_end in
  {
    correct = problems = [];
    attempted;
    failed;
    metrics =
      List.map
        (fun (m : C.metric) -> (m.name, Option.value (List.assoc_opt m.name computed) ~default:0.))
        catalogue;
  }

let unit_of name = match C.find name with Some m -> m.C.unit | None -> "?"

let result_json r =
  Json.Obj
    [
      ("correct", Json.Bool r.correct);
      ("attempted", Json.Num (float_of_int r.attempted));
      ("failed", Json.Num (float_of_int r.failed));
      ( "metrics",
        Json.Obj
          (List.map
             (fun (k, v) -> (k, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str (unit_of k)) ]))
             r.metrics) );
    ]

let result_of_json j =
  {
    correct = Json.member "correct" j = Json.Bool true;
    attempted = int_of_float (Json.to_num (Json.member "attempted" j));
    failed = int_of_float (Json.to_num (Json.member "failed" j));
    metrics =
      (match Json.member "metrics" j with
      | Json.Obj fields -> List.map (fun (k, v) -> (k, Json.to_num (Json.member "value" v))) fields
      | _ -> []);
  }

(* --- every workload, in child processes ------------------------------ *)

let run_child ~workload ~seed ~seconds ~trace =
  let exe = Sys.executable_name in
  let args =
    [| exe; "--workload"; workload; "--seed"; string_of_int seed; "--seconds"; num seconds;
       "--trace"; (if trace then "1" else "0") |]
  in
  let ic = Unix.open_process_args_in exe args in
  let lines = In_channel.input_all ic |> String.split_on_char '\n' |> List.filter (( <> ) "") in
  let status = Unix.close_process_in ic in
  match (status, List.rev lines) with
  | Unix.WEXITED (0 | 1), last :: _ -> (
      try result_of_json (Json.parse last)
      with Failure _ -> failwith (workload ^ ": child printed no result"))
  | _ -> failwith (workload ^ ": child crashed")

(* Aggregate runs of one workload: per metric the values, median and
   quartiles; exact metrics must agree across runs. *)
let aggregate name runs =
  let problems = ref [] in
  let metrics =
    List.filter_map
      (fun (m : C.metric) ->
        match List.filter_map (fun r -> List.assoc_opt m.name r.metrics) runs with
        | [] -> None
        | first :: _ as values ->
            if m.clock = C.Sim && List.exists (fun v -> v <> first) values then
              problems := Printf.sprintf "%s: %s differs between runs" name m.name :: !problems;
            let q1, med, q3 = quartiles values in
            Some (m, values, q1, med, q3))
      (C.end_to_end @ C.per_layer)
  in
  let sum f = List.fold_left (fun a r -> a + f r) 0 runs in
  let correct = !problems = [] && List.for_all (fun r -> r.correct) runs in
  List.iter prerr_endline (List.rev !problems);
  (correct, sum (fun r -> r.attempted), sum (fun r -> r.failed), metrics)

let aggregate_json ~seed ~seconds ~repeat results =
  let workload (name, (correct, attempted, failed, metrics)) =
    ( name,
      Json.Obj
        [
          ("correct", Json.Bool correct);
          ("attempted", Json.Num (float_of_int attempted));
          ("failed", Json.Num (float_of_int failed));
          ( "metrics",
            Json.Obj
              (List.map
                 (fun ((m : C.metric), values, q1, med, q3) ->
                   ( m.name,
                     Json.Obj
                       [
                         ("unit", Json.Str m.unit);
                         ("clock", Json.Str (if m.clock = C.Sim then "sim" else "host"));
                         ("values", Json.Arr (List.map (fun v -> Json.Num v) values));
                         ("median", Json.Num med);
                         ("q1", Json.Num q1);
                         ("q3", Json.Num q3);
                       ] ))
                 metrics) );
        ] )
  in
  Json.Obj
    [
      ("schema", Json.Str "multiverse-e2e/1");
      ("seed", Json.Num (float_of_int seed));
      ("seconds", Json.Num seconds);
      ("repeat", Json.Num (float_of_int repeat));
      ("workloads", Json.Obj (List.map workload results));
    ]

let print_result name r =
  List.iter (fun (k, v) -> Printf.printf "%s %s %s %s\n" name k (num v) (unit_of k)) r.metrics

(* --- the tier-1 smoke: tiny sizes, every metric of BENCHMARK.json ----- *)

let check_manifest path results =
  let manifest = Json.parse (In_channel.with_open_text path In_channel.input_all) in
  let declared section =
    List.map
      (fun j ->
        ( Json.to_str (Json.member "name" j),
          Json.to_str (Json.member "unit" j),
          Json.to_str (Json.member "better" j) = "higher" ))
      (Json.to_list (Json.member section manifest))
  in
  let ours l = List.map (fun (m : C.metric) -> (m.name, m.unit, m.higher_is_better)) l in
  let problems = ref [] in
  let expect cond msg = if not cond then problems := msg :: !problems in
  expect (declared "end_to_end" = ours C.end_to_end) "end_to_end differs from the catalogue";
  expect (declared "per_layer" = ours C.per_layer) "per_layer differs from the catalogue";
  expect
    (List.map (fun j -> Json.to_str (Json.member "name" j)) (Json.to_list (Json.member "workloads" manifest))
    = List.map (fun (w : W.t) -> w.name) W.all)
    "workloads differ from the benchmark's";
  List.iter
    (fun (name, r) ->
      expect r.correct (name ^ ": run not correct");
      List.iter
        (fun (k, v) -> expect (Float.is_finite v) (Printf.sprintf "%s: %s is not finite" name k))
        r.metrics)
    results;
  List.rev !problems

(* --- command line ---------------------------------------------------- *)

let write_results path ~seed ~seconds ~repeat results =
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Json.to_string (aggregate_json ~seed ~seconds ~repeat results));
      output_char oc '\n')

let main workload seed seconds trace repeat out chrome smoke setup_only manifest =
  let size = if smoke then W.Smoke else W.Full in
  let selected = match workload with Some w -> [ w ] | None -> W.all in
  if repeat < 1 then begin
    prerr_endline "run: --repeat must be at least 1";
    2
  end
  else if setup_only then begin
    List.iter
      (fun (w : W.t) ->
        let (_ : W.kind -> W.pass) = w.prepare size ~seed (Spans.create ()) in
        ())
      selected;
    0
  end
  else if smoke then begin
    let results =
      List.concat_map
        (fun (w : W.t) ->
          List.map
            (fun trace ->
              let r = run_workload ~size ~seed ~seconds:0. ~trace ~chrome:None w in
              print_result w.name r;
              (w.name, r))
            [ false; true ])
        selected
    in
    match check_manifest manifest results with
    | [] -> 0
    | problems ->
        List.iter (fun p -> prerr_endline ("smoke: " ^ p)) problems;
        1
  end
  else
    match (workload, repeat) with
    | Some w, 1 ->
        let r = run_workload ~size ~seed ~seconds ~trace ~chrome w in
        print_result w.name r;
        Option.iter
          (fun path -> write_results path ~seed ~seconds ~repeat [ (w.name, aggregate w.name [ r ]) ])
          out;
        print_endline (Json.to_string (result_json r));
        if r.correct then 0 else 1
    | _ -> (
        let workload_results (w : W.t) =
          let runs =
            List.concat_map
              (fun trace -> List.init repeat (fun _ -> run_child ~workload:w.name ~seed ~seconds ~trace))
              (if trace then [ false; true ] else [ false ])
          in
          let ((_, _, _, metrics) as agg) = aggregate w.name runs in
          List.iter
            (fun ((m : C.metric), _, q1, med, q3) ->
              if repeat = 1 then Printf.printf "%s %s %s %s\n%!" w.name m.name (num med) m.unit
              else
                Printf.printf "%s %s %s %s q1=%s q3=%s n=%d\n%!" w.name m.name (num med) m.unit
                  (num q1) (num q3) repeat)
            metrics;
          (w.name, agg)
        in
        match List.map workload_results selected with
        | exception Failure msg ->
            prerr_endline msg;
            1
        | results ->
            Option.iter (fun path -> write_results path ~seed ~seconds ~repeat results) out;
            if List.for_all (fun (_, (correct, _, failed, _)) -> correct && failed = 0) results then 0
            else 1)

let () =
  let workload_names = List.map (fun (w : W.t) -> (w.name, w)) W.all in
  let term =
    Args.(
      const main
      $ opt_opt (enum workload_names) ~names:[ "workload" ] ~docv:"NAME"
          ~doc:"Run one workload in this process and print its JSON result last (default: every workload, each in a child process)."
      $ opt int ~default:42 ~names:[ "seed" ] ~docv:"N" ~doc:"Seed of every random input stream."
      $ opt float ~default:15. ~names:[ "seconds" ] ~docv:"S"
          ~doc:"Measure each workload for at least S seconds of host time."
      $ opt (enum [ ("0", false); ("1", true) ]) ~default:false ~names:[ "trace" ] ~docv:"0|1"
          ~doc:"1: the traced run, which reports the per-layer metrics instead of the end-to-end ones (with every workload: both runs)."
      $ opt int ~default:1 ~names:[ "repeat" ] ~docv:"N"
          ~doc:"Run each workload N times; exact metrics must agree, host metrics get median and quartiles."
      $ opt_opt string ~names:[ "out" ] ~docv:"FILE" ~doc:"Write the aggregated results as JSON."
      $ opt_opt string ~names:[ "chrome" ] ~docv:"FILE"
          ~doc:"With --workload and --trace 1: write one traced pass's spans as a Chrome trace."
      $ flag ~names:[ "smoke" ] ~doc:"Tiny sizes, one pass each, checked against BENCHMARK.json."
      $ flag ~names:[ "setup-only" ] ~doc:"Set the workload up and exit (used to time set-up)."
      $ opt string ~default:"BENCHMARK.json" ~names:[ "manifest" ] ~docv:"FILE"
          ~doc:"The benchmark manifest the smoke run checks against.")
  in
  let code =
    Args.run ~name:"run" ~doc:"End-to-end benchmark of the Multiverse simulation" term
      (List.tl (Array.to_list Sys.argv))
  in
  exit code
