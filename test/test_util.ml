(* Tests for the utility library: cycle/time conversion, deterministic
   RNG, statistics, histograms, table rendering. *)

open Mv_util

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let close ?(eps = 1e-9) msg a b =
  Alcotest.(check bool) (Printf.sprintf "%s (%g ~ %g)" msg a b) true (Float.abs (a -. b) < eps)

let test_cycles_roundtrip () =
  (* 2.2 GHz: 2200 cycles per microsecond. *)
  check_int "1 us" 2200 (Cycles.of_us 1.);
  check_int "1 ms" 2_200_000 (Cycles.of_ms 1.);
  close "to_us inverse" 1.0 (Cycles.to_us (Cycles.of_us 1.));
  close "to_sec of 2.2e9" 1.0 (Cycles.to_sec 2_200_000_000)

let test_cycles_paper_values () =
  (* Figure 2: 25 K cycles ~ 1.1 us; 790 cycles ~ 36 ns; 33 K ~ 1.5 us. *)
  close ~eps:0.1 "async channel" 11.4 (Cycles.to_us 25_000);
  close ~eps:1.0 "sync same socket" 359.0 (Cycles.to_ns 790);
  close ~eps:0.1 "merger" 15.0 (Cycles.to_us 33_000)

let test_rng_deterministic () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  let xs = List.init 100 (fun _ -> Rng.next a) in
  let ys = List.init 100 (fun _ -> Rng.next b) in
  Alcotest.(check (list int)) "same seed, same stream" xs ys;
  let c = Rng.create ~seed:43 in
  let zs = List.init 100 (fun _ -> Rng.next c) in
  check_bool "different seed differs" true (xs <> zs)

let test_rng_split_independent () =
  let a = Rng.create ~seed:1 in
  let b = Rng.split a in
  let xs = List.init 50 (fun _ -> Rng.next a) in
  let ys = List.init 50 (fun _ -> Rng.next b) in
  check_bool "split streams differ" true (xs <> ys)

let qcheck_rng_bounds =
  QCheck.Test.make ~name:"rng: int stays in bounds"
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Rng.create ~seed in
      let v = Rng.int rng bound in
      v >= 0 && v < bound)

(* [fill_bytes] stores what [int t 256] draws would, where it is told,
   and leaves the stream where those draws would. *)
let test_rng_fill_bytes () =
  List.iter
    (fun (pos, len) ->
      let a = Rng.create ~seed:7 and b = Rng.create ~seed:7 in
      let buf = Bytes.make (pos + len + 3) '*' in
      Rng.fill_bytes a buf ~pos ~len;
      let drawn = String.init len (fun _ -> Char.chr (Rng.int b 256)) in
      let name = Printf.sprintf "pos %d len %d" pos len in
      Alcotest.(check string) (name ^ ": bytes") drawn (Bytes.sub_string buf pos len);
      Alcotest.(check string)
        (name ^ ": the rest untouched") (String.make pos '*' ^ "***")
        (Bytes.sub_string buf 0 pos ^ Bytes.sub_string buf (pos + len) 3);
      Alcotest.(check int) (name ^ ": stream position") (Rng.next b) (Rng.next a))
    [ (0, 0); (0, 1); (5, 17); (36, 4096) ];
  Alcotest.check_raises "range outside the buffer" (Invalid_argument "Rng.fill_bytes") (fun () ->
      Rng.fill_bytes (Rng.create ~seed:1) (Bytes.create 4) ~pos:2 ~len:3)

let test_stats_basic () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 1.; 2.; 3.; 4.; 5. ];
  close "mean" 3.0 (Stats.mean s);
  close "min" 1.0 (Stats.min s);
  close "max" 5.0 (Stats.max s);
  close ~eps:1e-6 "stddev" (sqrt 2.) (Stats.stddev s);
  close "median" 3.0 (Stats.percentile s 50.)

let test_stats_percentiles () =
  let s = Stats.create () in
  (* Insert out of order: percentile must sort, not trust arrival order. *)
  List.iter (Stats.add s) [ 40.; 10.; 30.; 20. ];
  close "p0 = min" 10. (Stats.percentile s 0.);
  close "p100 = max" 40. (Stats.percentile s 100.);
  close "nearest-rank p50" 20. (Stats.percentile s 50.);
  close "interp p50 between ranks" 25. (Stats.percentile_interp s 50.);
  close "interp p25" 17.5 (Stats.percentile_interp s 25.);
  close "interp endpoints" 40. (Stats.percentile_interp s 100.);
  (* The sorted cache must be invalidated by add: query, add a new
     minimum, query again. *)
  close "cached p100" 40. (Stats.percentile s 100.);
  Stats.add s 5.;
  close "p0 after add sees new sample" 5. (Stats.percentile s 0.);
  close "interp p50 after add" 20. (Stats.percentile_interp s 50.)

let test_stats_summary () =
  let s = Stats.create () in
  Stats.add s 10.;
  let sum = Stats.summary s in
  check_int "count" 1 sum.Stats.s_count;
  close "mean" 10. sum.Stats.s_mean;
  close "stddev of single" 0. sum.Stats.s_stddev

(* Merging per-worker accumulators must be indistinguishable from having
   added every sample to one accumulator — that equivalence is what lets
   the parallel bench matrices reduce worker-local Stats without changing
   any reported number. *)
let qcheck_stats_merge_concat =
  QCheck.Test.make ~name:"stats: merge_into = add of concatenated samples" ~count:100
    QCheck.(pair (list (float_bound_exclusive 1000.)) (small_list (float_bound_exclusive 1000.)))
    (fun (xs, ys) ->
      QCheck.assume (xs <> [] || ys <> []);
      let direct = Stats.create () in
      List.iter (Stats.add direct) (xs @ ys);
      let dst = Stats.create () and src = Stats.create () in
      List.iter (Stats.add dst) xs;
      List.iter (Stats.add src) ys;
      (* Prime both percentile caches so the merge must invalidate dst's. *)
      if xs <> [] then ignore (Stats.percentile dst 50.);
      if ys <> [] then ignore (Stats.percentile src 50.);
      Stats.merge_into dst src;
      let eq a b = Float.abs (a -. b) < 1e-9 in
      Stats.count dst = Stats.count direct
      && eq (Stats.mean dst) (Stats.mean direct)
      && eq (Stats.stddev dst) (Stats.stddev direct)
      && eq (Stats.min dst) (Stats.min direct)
      && eq (Stats.max dst) (Stats.max direct)
      && List.for_all
           (fun p ->
             eq (Stats.percentile dst p) (Stats.percentile direct p)
             && eq (Stats.percentile_interp dst p) (Stats.percentile_interp direct p))
           [ 0.; 25.; 50.; 90.; 99.; 100. ]
      && (* src must be left intact *)
      Stats.count src = List.length ys)

let test_stats_merge_cache_invalidation () =
  let dst = Stats.create () and src = Stats.create () in
  List.iter (Stats.add dst) [ 10.; 20. ];
  List.iter (Stats.add src) [ 1.; 2. ];
  (* Build dst's sorted cache, then merge: stale cache would still answer
     from [10;20] and report p0 = 10. *)
  close "pre-merge p0" 10. (Stats.percentile dst 0.);
  Stats.merge_into dst src;
  close "post-merge p0 sees src samples" 1. (Stats.percentile dst 0.);
  close "post-merge p100" 20. (Stats.percentile dst 100.);
  check_int "post-merge count" 4 (Stats.count dst)

let test_stats_merge_empty () =
  let dst = Stats.create () and src = Stats.create () in
  List.iter (Stats.add dst) [ 3.; 7. ];
  Stats.merge_into dst src;
  check_int "empty src is a no-op" 2 (Stats.count dst);
  close "mean unchanged" 5. (Stats.mean dst);
  let dst2 = Stats.create () in
  Stats.merge_into dst2 dst;
  check_int "merge into empty adopts src" 2 (Stats.count dst2);
  close "extrema adopted" 3. (Stats.min dst2);
  close "extrema adopted hi" 7. (Stats.max dst2)

let qcheck_histogram_merge_pointwise =
  let entry = QCheck.(pair (oneofl [ "read"; "write"; "mmap"; "brk"; "futex" ]) (int_bound 50)) in
  QCheck.Test.make ~name:"histogram: merge = histogram of concatenated tallies" ~count:100
    QCheck.(pair (small_list entry) (small_list entry))
    (fun (xs, ys) ->
      let build entries =
        let h = Histogram.create () in
        List.iter (fun (k, n) -> Histogram.add h k n) entries;
        h
      in
      let merged = Histogram.merge (build xs) (build ys) in
      let direct = build (xs @ ys) in
      Histogram.to_sorted_list merged = Histogram.to_sorted_list direct
      && Histogram.total merged = Histogram.total direct)

let test_histogram () =
  let h = Histogram.create () in
  Histogram.incr h "read";
  Histogram.incr h "read";
  Histogram.add h "mmap" 5;
  check_int "read" 2 (Histogram.count h "read");
  check_int "absent" 0 (Histogram.count h "write");
  check_int "total" 7 (Histogram.total h);
  (match Histogram.to_sorted_list h with
  | [ ("mmap", 5); ("read", 2) ] -> ()
  | l ->
      Alcotest.failf "bad sort: %s"
        (String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) l)));
  let h2 = Histogram.create () in
  Histogram.add h2 "read" 3;
  let m = Histogram.merge h h2 in
  check_int "merged read" 5 (Histogram.count m "read");
  check_int "original unchanged" 2 (Histogram.count h "read")

let test_table_render () =
  let t = Table.create ~headers:[ "name"; "count" ] in
  Table.add_row t [ "alpha"; "10" ];
  Table.add_row t [ "b"; "2000" ];
  let s = Table.to_string t in
  check_bool "has header" true
    (String.length s > 0
    && String.split_on_char '\n' s |> List.exists (fun l -> String.length l > 0));
  (* Right-aligned numeric column: "  10" with padding. *)
  check_bool "numeric right-aligned" true
    (String.split_on_char '\n' s |> List.exists (fun l ->
         match String.index_opt l '1' with
         | Some i -> i > 0 && String.contains l '0'
         | None -> false))

let suite =
  [
    ("cycles: conversions", `Quick, test_cycles_roundtrip);
    ("cycles: paper's figure-2 values", `Quick, test_cycles_paper_values);
    ("rng: deterministic", `Quick, test_rng_deterministic);
    ("rng: split independence", `Quick, test_rng_split_independent);
    QCheck_alcotest.to_alcotest qcheck_rng_bounds;
    ("rng: fill_bytes is draws of int 256", `Quick, test_rng_fill_bytes);
    ("stats: basic moments", `Quick, test_stats_basic);
    ("stats: percentiles, interp + cache invalidation", `Quick, test_stats_percentiles);
    ("stats: summary", `Quick, test_stats_summary);
    QCheck_alcotest.to_alcotest qcheck_stats_merge_concat;
    ("stats: merge invalidates the percentile cache", `Quick, test_stats_merge_cache_invalidation);
    ("stats: merge with empty sides", `Quick, test_stats_merge_empty);
    ("histogram: counts/sort/merge", `Quick, test_histogram);
    QCheck_alcotest.to_alcotest qcheck_histogram_merge_pointwise;
    ("table: rendering", `Quick, test_table_render);
  ]
