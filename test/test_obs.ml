(* Tests for lib/obs — the observability backbone:

   - Tracer: span nesting, ambient parent defaulting, out-of-order close,
     per-track isolation, disabled-path behavior, capacity bounding.
   - QCheck: under random begin/end schedules across several tracks,
     every span closes exactly once and every parent's interval contains
     its children's.
   - Metrics: idempotent registration, counter/gauge/latency cells.
   - Export: golden Chrome trace-event JSON for a fixed scenario
     (regenerate with MV_GOLDEN_PROMOTE=1), folded-stack shape.
   - End-to-end acceptance: critical-path attribution >= 95% on
     binary-tree-2 under multiverse; folded output non-empty in all
     three run modes. *)

open Multiverse
module Tracer = Mv_obs.Tracer
module Metrics = Mv_obs.Metrics
module Export = Mv_obs.Export
module Critical_path = Mv_obs.Critical_path
module Machine = Mv_engine.Machine

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* A tracer over a hand-cranked clock and track register. *)
let make ?(capacity = 1_000_000) () =
  let clock = ref 0 and track = ref 0 in
  let t =
    Tracer.create ~enabled:true ~capacity
      ~now:(fun () -> !clock)
      ~track:(fun () -> !track)
      ~track_name:(fun () -> Printf.sprintf "track-%d" !track)
      ()
  in
  (t, clock, track)

let span_named t name =
  match List.find_opt (fun sp -> sp.Tracer.sp_name = name) (Tracer.spans t) with
  | Some sp -> sp
  | None -> Alcotest.failf "no completed span named %S" name

(* --- Tracer units --- *)

let test_nesting () =
  let t, clock, _ = make () in
  let a = Tracer.begin_span t ~name:"a" ~cat:"x" () in
  check_int "current = a" a (Tracer.current t);
  clock := 10;
  let b = Tracer.begin_span t ~name:"b" ~cat:"x" () in
  check_int "current = innermost" b (Tracer.current t);
  check_int "open" 2 (Tracer.open_count t);
  clock := 25;
  Tracer.end_span t b;
  clock := 40;
  Tracer.end_span t a;
  check_int "open after" 0 (Tracer.open_count t);
  check_int "completed" 2 (Tracer.span_count t);
  let sa = span_named t "a" and sb = span_named t "b" in
  check_int "a is root" 0 sa.Tracer.sp_parent;
  check_int "b's parent defaults to a" a sb.Tracer.sp_parent;
  check_int "a ts" 0 sa.Tracer.sp_ts;
  check_int "a dur" 40 sa.Tracer.sp_dur;
  check_int "b ts" 10 sb.Tracer.sp_ts;
  check_int "b dur" 15 sb.Tracer.sp_dur

let test_out_of_order_close () =
  let t, clock, _ = make () in
  let a = Tracer.begin_span t ~name:"a" ~cat:"x" () in
  clock := 1;
  let _b = Tracer.begin_span t ~name:"b" ~cat:"x" () in
  clock := 2;
  let _c = Tracer.begin_span t ~name:"c" ~cat:"x" () in
  clock := 9;
  (* Ending the outermost also closes the still-open spans inside it. *)
  Tracer.end_span t a;
  check_int "all closed" 0 (Tracer.open_count t);
  check_int "all completed" 3 (Tracer.span_count t);
  check_int "c end" 9 ((span_named t "c").Tracer.sp_ts + (span_named t "c").Tracer.sp_dur);
  check_int "a end" 9 ((span_named t "a").Tracer.sp_ts + (span_named t "a").Tracer.sp_dur)

let test_disabled_is_inert () =
  let t, _, _ = make () in
  Tracer.set_enabled t false;
  let id = Tracer.begin_span t ~name:"a" ~cat:"x" () in
  check_int "begin returns 0" 0 id;
  Tracer.end_span t id;
  Tracer.annotate t "k" "v";
  check_int "with_span still runs the body" 7
    (Tracer.with_span t ~name:"w" ~cat:"x" (fun () -> 7));
  check_int "nothing recorded" 0 (Tracer.span_count t);
  check_int "nothing open" 0 (Tracer.open_count t);
  check_int "no drops" 0 (Tracer.dropped t)

let test_complete_and_annotate () =
  let t, clock, _ = make () in
  let cr = Tracer.begin_span t ~name:"fwd:write" ~cat:"crossing" () in
  Tracer.annotate t "len" "42";
  clock := 300;
  let seg = Tracer.complete t ~parent:cr ~name:"service" ~cat:"service" ~ts:80 ~dur:150 () in
  check_bool "complete returns a fresh id" true (seg <> 0 && seg <> cr);
  Tracer.end_span t cr;
  let s = span_named t "service" in
  check_int "explicit parent" cr s.Tracer.sp_parent;
  check_int "explicit ts" 80 s.Tracer.sp_ts;
  check_int "explicit dur" 150 s.Tracer.sp_dur;
  check_bool "annotation attached" true
    (List.mem ("len", "42") (span_named t "fwd:write").Tracer.sp_args)

let test_capacity_bounds () =
  let t, _, _ = make ~capacity:2 () in
  for i = 1 to 5 do
    ignore (Tracer.complete t ~name:(string_of_int i) ~cat:"x" ~ts:0 ~dur:1 ())
  done;
  check_int "retained" 2 (Tracer.span_count t);
  check_int "dropped counted" 3 (Tracer.dropped t)

let test_tracks_isolated () =
  let t, clock, track = make () in
  let a = Tracer.begin_span t ~name:"a" ~cat:"x" () in
  track := 1;
  check_int "no ambient parent on another track" 0 (Tracer.current t);
  clock := 5;
  let b = Tracer.begin_span t ~name:"b" ~cat:"x" () in
  clock := 6;
  Tracer.end_span t b;
  track := 0;
  clock := 9;
  Tracer.end_span t a;
  check_int "b is a root on its own track" 0 (span_named t "b").Tracer.sp_parent;
  check_int "b's track" 1 (span_named t "b").Tracer.sp_track;
  Alcotest.(check (list int)) "tracks seen" [ 0; 1 ] (Tracer.tracks t);
  Alcotest.(check string) "track label" "track-1" (Tracer.track_label t 1)

(* --- QCheck: random schedules --- *)

(* Each op is (track, action, pick): action <= 1 opens a span (bias
   towards deep nesting), otherwise it closes the pick-th innermost open
   span of that track — often not the innermost, exercising the
   close-nested-orphans path. *)
let arb_schedule =
  QCheck.small_list QCheck.(triple (int_bound 2) (int_bound 3) small_nat)

let rec drop k = function
  | l when k <= 0 -> l
  | [] -> []
  | _ :: tl -> drop (k - 1) tl

let qcheck_spans_close_once =
  QCheck.Test.make
    ~name:"tracer: every span closes exactly once under random schedules"
    ~count:300 arb_schedule
    (fun ops ->
      let t, clock, track = make () in
      let opens = Array.make 3 [] (* per-track open ids, innermost first *) in
      let begins = ref 0 in
      List.iter
        (fun (tr, action, pick) ->
          incr clock;
          track := tr;
          if action <= 1 then begin
            let id =
              Tracer.begin_span t ~name:(Printf.sprintf "s%d" !begins) ~cat:"q" ()
            in
            opens.(tr) <- id :: opens.(tr);
            incr begins
          end
          else
            match opens.(tr) with
            | [] -> ()
            | l ->
                let k = pick mod List.length l in
                Tracer.end_span t (List.nth l k);
                opens.(tr) <- drop (k + 1) l)
        ops;
      (* Quiesce: ending each track's oldest span closes the rest. *)
      Array.iteri
        (fun tr l ->
          track := tr;
          incr clock;
          match List.rev l with [] -> () | oldest :: _ -> Tracer.end_span t oldest)
        opens;
      let spans = Tracer.spans t in
      let ids = List.map (fun sp -> sp.Tracer.sp_id) spans in
      Tracer.open_count t = 0
      && Tracer.span_count t = !begins
      && List.length (List.sort_uniq compare ids) = !begins)

let qcheck_parents_outlive_children =
  QCheck.Test.make
    ~name:"tracer: parent intervals contain their children's" ~count:300
    arb_schedule
    (fun ops ->
      let t, clock, track = make () in
      let opens = Array.make 3 [] in
      let n = ref 0 in
      List.iter
        (fun (tr, action, pick) ->
          incr clock;
          track := tr;
          if action <= 1 then begin
            let id = Tracer.begin_span t ~name:(Printf.sprintf "s%d" !n) ~cat:"q" () in
            opens.(tr) <- id :: opens.(tr);
            incr n
          end
          else
            match opens.(tr) with
            | [] -> ()
            | l ->
                let k = pick mod List.length l in
                Tracer.end_span t (List.nth l k);
                opens.(tr) <- drop (k + 1) l)
        ops;
      Array.iteri
        (fun tr l ->
          track := tr;
          incr clock;
          match List.rev l with [] -> () | oldest :: _ -> Tracer.end_span t oldest)
        opens;
      let spans = Tracer.spans t in
      let by_id = Hashtbl.create 64 in
      List.iter (fun sp -> Hashtbl.replace by_id sp.Tracer.sp_id sp) spans;
      List.for_all
        (fun sp ->
          sp.Tracer.sp_parent = 0
          ||
          match Hashtbl.find_opt by_id sp.Tracer.sp_parent with
          | None -> false
          | Some p ->
              p.Tracer.sp_track = sp.Tracer.sp_track
              && p.Tracer.sp_ts <= sp.Tracer.sp_ts
              && p.Tracer.sp_ts + p.Tracer.sp_dur
                 >= sp.Tracer.sp_ts + sp.Tracer.sp_dur)
        spans)

(* --- Metrics --- *)

let test_metrics_registry () =
  let m = Metrics.create () in
  let c = Metrics.counter m ~ns:"fabric" "calls" in
  Metrics.inc c ();
  Metrics.inc c ~by:4 ();
  (* Registration is idempotent: same cell on re-lookup. *)
  check_int "idempotent lookup" 5
    (Metrics.counter_value (Metrics.counter m ~ns:"fabric" "calls"));
  let g = Metrics.gauge m ~ns:"sgc" "live_ratio" in
  Metrics.set_gauge g 0.5;
  Alcotest.(check (float 1e-9)) "gauge" 0.5 (Metrics.gauge_value g);
  let l = Metrics.latency m ~ns:"fabric" "crossing:write" in
  Metrics.observe l 100.0;
  Metrics.observe l 300.0;
  check_int "latency samples" 2 (Metrics.latency_stats l).Mv_util.Stats.s_count;
  (match Metrics.find m "fabric/calls" with
  | Some (Metrics.Counter_v 5) -> ()
  | _ -> Alcotest.fail "find fabric/calls");
  check_bool "find miss" true (Metrics.find m "fabric/nope" = None);
  let names = List.map fst (Metrics.to_list m) in
  Alcotest.(check (list string))
    "sorted by full name"
    [ "fabric/calls"; "fabric/crossing:write"; "sgc/live_ratio" ]
    names

(* --- Critical path over synthetic spans + golden Chrome export --- *)

(* The fixed scenario behind both the golden export and the synthetic
   critical-path check: one crossing with measured transport/service/
   reply segments (10 uncovered cycles -> guest), an instant on a second
   track (registered through [Tracer.track], as [Machine.emit] does for
   trace records), and two metrics. *)
let golden_scenario () =
  let t, clock, track = make () in
  let m = Metrics.create () in
  Metrics.inc (Metrics.counter m ~ns:"fabric" "calls") ~by:3 ();
  Metrics.observe (Metrics.latency m ~ns:"fabric" "crossing:write") 120.0;
  let root = Tracer.begin_span t ~name:"run:test" ~cat:"sim" () in
  clock := 100;
  let cr = Tracer.begin_span t ~name:"fwd:write" ~cat:"crossing" () in
  Tracer.annotate t "len" "42";
  clock := 400;
  ignore (Tracer.complete t ~parent:cr ~name:"transport" ~cat:"transport" ~ts:100 ~dur:80 ());
  ignore (Tracer.complete t ~parent:cr ~name:"service" ~cat:"service" ~ts:180 ~dur:150 ());
  ignore (Tracer.complete t ~parent:cr ~name:"reply" ~cat:"reply" ~ts:330 ~dur:60 ());
  Tracer.end_span t cr;
  track := 1;
  let fault =
    {
      Export.in_name = "pagefault";
      in_cat = "fault";
      in_track = Tracer.track t;
      in_ts = !clock;
      in_detail = "pid=1";
    }
  in
  track := 0;
  clock := 1000;
  Tracer.end_span t root;
  (t, m, [ fault ])

let test_critical_path_synthetic () =
  let t, _, _ = golden_scenario () in
  let report = Critical_path.compute (Tracer.spans t) in
  (match report.Critical_path.rows with
  | [ row ] ->
      Alcotest.(check string) "kind" "fwd:write" row.Critical_path.r_kind;
      check_int "count" 1 row.Critical_path.r_count;
      check_int "total" 300 row.Critical_path.r_total;
      check_int "transport" 80 row.Critical_path.r_transport;
      check_int "service" 150 row.Critical_path.r_service;
      check_int "reply" 60 row.Critical_path.r_reply;
      check_int "guest = uncovered remainder" 10 row.Critical_path.r_guest
  | rows -> Alcotest.failf "expected 1 row, got %d" (List.length rows));
  Alcotest.(check (float 1e-9))
    "fully attributed" 1.0
    (Critical_path.attributed_fraction report)

let golden_path =
  let candidates =
    [
      Filename.concat (Filename.dirname Sys.executable_name) "golden/obs_chrome.trace";
      "golden/obs_chrome.trace";
      "test/golden/obs_chrome.trace";
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> List.hd candidates

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let test_golden_chrome () =
  let t, m, instants = golden_scenario () in
  let actual = Export.chrome ~process_name:"golden/obs" ~metrics:m ~instants t in
  match Sys.getenv_opt "MV_GOLDEN_PROMOTE" with
  | Some _ ->
      let path =
        if Sys.file_exists "test/golden" then "test/golden/obs_chrome.trace"
        else golden_path
      in
      let oc = open_out_bin path in
      output_string oc actual;
      close_out oc
  | None ->
      let expected =
        try read_file golden_path
        with Sys_error _ ->
          Alcotest.failf
            "missing %s — regenerate with: MV_GOLDEN_PROMOTE=1 dune exec \
             test/test_main.exe -- test obs"
            golden_path
      in
      if actual <> expected then
        Alcotest.failf
          "Chrome export diverged (%d bytes, want %d).  If intentional, \
           regenerate with: MV_GOLDEN_PROMOTE=1 dune exec test/test_main.exe \
           -- test obs"
          (String.length actual) (String.length expected)

let test_folded_synthetic () =
  let t, _, _ = golden_scenario () in
  let folded = Export.folded t in
  check_bool "non-empty" true (String.length folded > 0);
  (* Every line is "stack N" with N > 0, and the crossing's self time
     (300 total - 290 covered) shows up under the root. *)
  String.split_on_char '\n' folded
  |> List.filter (fun l -> l <> "")
  |> List.iter (fun line ->
         match String.rindex_opt line ' ' with
         | None -> Alcotest.failf "malformed folded line %S" line
         | Some i ->
             let w = String.sub line (i + 1) (String.length line - i - 1) in
             check_bool "positive weight" true (int_of_string w > 0));
  check_bool "crossing stack present" true
    (List.exists
       (fun l ->
         String.length l >= String.length "track-0;run:test;fwd:write"
         && String.sub l 0 (String.length "track-0;run:test;fwd:write")
            = "track-0;run:test;fwd:write")
       (String.split_on_char '\n' folded))

(* --- end-to-end acceptance on binary-tree-2 --- *)

let run_traced mode =
  let b = Mv_workloads.Benchmarks.find "binary-tree-2" in
  let prog =
    Mv_workloads.Benchmarks.program b ~n:b.Mv_workloads.Benchmarks.b_test_n
  in
  match mode with
  | `Native -> Toolchain.run_native ~trace:true prog
  | `Virtual -> Toolchain.run_virtual ~trace:true prog
  | `Multiverse -> Toolchain.run_multiverse ~trace:true (Toolchain.hybridize prog)

let test_critical_path_acceptance () =
  let rs = run_traced `Multiverse in
  let obs = rs.Toolchain.rs_machine.Machine.obs in
  let report = Critical_path.compute (Tracer.spans obs) in
  check_bool "crossings recorded" true (report.Critical_path.rows <> []);
  let f = Critical_path.attributed_fraction report in
  if f < 0.95 then
    Alcotest.failf "attributed %.2f%% of crossing cycles, need >= 95%%"
      (100.0 *. f);
  check_int "no span left open after the run" 0 (Tracer.open_count obs)

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* The export renders the machine's trace records as its instants: one
   "ph":"i" event per record, on the track of the thread that emitted it
   (labelled with that thread's name), in (time, emission) order. *)
let test_chrome_instant_per_record () =
  let rs = run_traced `Multiverse in
  let machine = rs.Toolchain.rs_machine in
  let trace = machine.Machine.trace in
  let records = Mv_engine.Trace.records trace in
  check_bool "records traced" true (records <> []);
  let lines =
    String.split_on_char '\n'
      (Export.chrome ~instants:(Mv_engine.Trace.instants trace) machine.Machine.obs)
  in
  let instants = List.filter (fun l -> contains l "\"ph\":\"i\"") lines in
  check_int "one instant per record" (List.length records) (List.length instants);
  let in_export_order =
    List.mapi (fun i r -> (r.Mv_engine.Trace.at, i, r)) records
    |> List.sort compare
    |> List.map (fun (_, _, r) -> r)
  in
  List.iter2
    (fun (r : Mv_engine.Trace.record) line ->
      check_bool "emitted in thread context" true (r.track >= 0);
      check_bool
        (Printf.sprintf "instant %S on track %d" r.message r.track)
        true
        (contains line (Printf.sprintf "{\"name\":\"%s\",\"cat\":\"%s\"," r.category r.category)
        && contains line (Printf.sprintf "\"tid\":%d," r.track)
        && contains line (Printf.sprintf "\"detail\":\"%s\"" r.message));
      check_bool
        (Printf.sprintf "track %d labelled with its thread" r.track)
        true
        (List.exists
           (fun l ->
             contains l
               (Printf.sprintf "\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d," r.track)
             && not (contains l "\"name\":\"track-"))
           lines))
    in_export_order instants

let test_folded_all_modes () =
  List.iter
    (fun (name, mode) ->
      let rs = run_traced mode in
      let folded = Export.folded rs.Toolchain.rs_machine.Machine.obs in
      check_bool (name ^ ": folded output non-empty") true
        (String.length folded > 0))
    [ ("native", `Native); ("virtual", `Virtual); ("multiverse", `Multiverse) ]

(* QCheck marks property tests `Slow by default; these are cheap. *)
let to_alcotest t =
  let name, _, fn = QCheck_alcotest.to_alcotest t in
  (name, `Quick, fn)

let suite =
  [
    ("tracer: nesting and ambient parents", `Quick, test_nesting);
    ("tracer: out-of-order close", `Quick, test_out_of_order_close);
    ("tracer: disabled is inert", `Quick, test_disabled_is_inert);
    ("tracer: complete + annotate", `Quick, test_complete_and_annotate);
    ("tracer: capacity bounds retention", `Quick, test_capacity_bounds);
    ("tracer: tracks are isolated", `Quick, test_tracks_isolated);
    to_alcotest qcheck_spans_close_once;
    to_alcotest qcheck_parents_outlive_children;
    ("metrics: registry", `Quick, test_metrics_registry);
    ("critical path: synthetic crossing", `Quick, test_critical_path_synthetic);
    ("chrome export: golden scenario", `Quick, test_golden_chrome);
    ("chrome export: one instant per trace record", `Quick, test_chrome_instant_per_record);
    ("folded export: synthetic scenario", `Quick, test_folded_synthetic);
    ("critical path: >= 95% attributed (binary-tree-2)", `Quick, test_critical_path_acceptance);
    ("folded export: non-empty in all modes", `Slow, test_folded_all_modes);
  ]
