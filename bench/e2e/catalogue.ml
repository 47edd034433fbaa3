(* Every metric the benchmark reports, in print order.  BENCHMARK.json
   lists the same names, units and directions; the smoke run fails when
   the two disagree.  Meanings, clocks and the end-to-end metric each
   per-layer number should move are in README.md. *)

(* Host: measured on the host, so a set of runs reports its median and
   quartiles.  Sim: a simulated quantity or a count, exact and repeated
   bit for bit for a given seed. *)
type clock = Host | Sim

type metric = { name : string; unit : string; higher_is_better : bool; clock : clock }

let m ?(higher = false) clock name unit = { name; unit; higher_is_better = higher; clock }

(* Offered loads of the fabric-open ladder, in thousands of calls per
   second. *)
let ladder_kcps = [ 300; 325; 350; 375; 400; 425; 450; 475; 500 ]
let ladder_metric kcps = Printf.sprintf "hvm.ladder_p99_kcycles.%dk" kcps

let end_to_end =
  [ m Host "host_s" "s"; m Host "setup_s" "s"; m Host "peak_heap_mb" "MB" ]

let per_layer =
  [
    m Sim "engine.events" "count";
    m Sim "engine.ctx_switches" "count";
    m Host ~higher:true "engine.kevents_per_s" "k/s";
    m Host "engine.minor_words_per_event" "words";
    m Host "engine.self_frac" "frac";
    m Sim "racket.vm_instructions" "count";
    m Sim "racket.gc_collections" "count";
    m Host ~higher:true "racket.vm_minstr_per_s" "M/s";
    m Host "racket.minor_words_per_instr" "words";
    m Host "racket.self_frac" "frac";
    m Sim "ros.syscalls" "count";
    m Sim "ros.page_faults" "count";
    m Sim "ros.stime_mcycles" "Mcycles";
    m Sim "ros.maxrss_kb" "KB";
    m Sim ~higher:true "hw.tlb_hit_rate" "frac";
    m Sim "hw.walks" "count";
    m Sim "hw.memory_path_mcycles" "Mcycles";
    m Sim "hw.shootdowns" "count";
    m Sim "hvm.fabric_calls" "count";
    m Sim "hvm.doorbells" "count";
    m Sim ~higher:true "hvm.local_hit_rate" "frac";
    m Sim "hvm.remerges" "count";
    m Sim "hvm.crossing_guest_mcycles" "Mcycles";
    m Sim "hvm.crossing_transport_mcycles" "Mcycles";
    m Sim "hvm.crossing_service_mcycles" "Mcycles";
    m Sim "hvm.crossing_reply_mcycles" "Mcycles";
    m Sim ~higher:true "hvm.crossing_attributed_frac" "frac";
    m Sim "hvm.sojourn_p50_kcycles" "kcycles";
    m Sim "hvm.sojourn_p99_kcycles" "kcycles";
    m Sim "hvm.queue_wait_p50_kcycles" "kcycles";
    m Sim ~higher:true "hvm.max_kcps" "kcalls/s";
    m Sim ~higher:true "hvm.goodput_kcps" "kcalls/s";
    m Sim "hvm.drop_frac" "frac";
    m Sim "hvm.dropped" "count";
    m Sim "hvm.ring_hw" "count";
    m Sim "hvm.sheds" "count";
    m Sim "hvm.shed_retries" "count";
    m Sim "hvm.shed_flips" "count";
  ]
  @ List.map (fun k -> m Sim (ladder_metric k) "kcycles") ladder_kcps
  @ [
      m Sim "multiverse.sim_mcycles" "Mcycles";
      m Sim "multiverse.mv_overhead" "ratio";
      m Host "multiverse.hybridize_ms" "ms";
      m Sim ~higher:true "check.runs" "count";
      m Sim ~higher:true "check.choice_points" "count";
      m Sim ~higher:true "check.bugs_found" "count";
      m Host ~higher:true "check.stack_runs_per_s" "1/s";
      m Host ~higher:true "check.light_runs_per_s" "1/s";
      m Host "check.self_frac" "frac";
      m Sim "obs.spans" "count";
      m Sim "obs.spans_dropped" "count";
      m Sim "obs.bench_spans" "count";
      m Host "obs.trace_overhead_frac" "frac";
    ]

let find name = List.find_opt (fun x -> x.name = name) (end_to_end @ per_layer)
