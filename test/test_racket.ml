(* Tests for the Racket-style runtime: reader, value encodings, the
   SenoraGC collector (liveness properties, write barrier, segment
   recycling), compiler + VM semantics, and engine startup profile. *)

module Machine = Mv_engine.Machine
module Sim = Mv_engine.Sim
open Mv_racket

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* --- Sexp --- *)

let test_sexp_atoms () =
  let open Sexp in
  Alcotest.(check bool) "int" true (parse_one "42" = Atom_int 42);
  Alcotest.(check bool) "negative" true (parse_one "-7" = Atom_int (-7));
  Alcotest.(check bool) "float" true (parse_one "3.25" = Atom_float 3.25);
  Alcotest.(check bool) "sym" true (parse_one "foo-bar!" = Atom_sym "foo-bar!");
  Alcotest.(check bool) "string" true (parse_one {|"a\nb"|} = Atom_string "a\nb");
  Alcotest.(check bool) "true" true (parse_one "#t" = Atom_bool true);
  Alcotest.(check bool) "char" true (parse_one {|#\a|} = Atom_char 'a');
  Alcotest.(check bool) "space char" true (parse_one {|#\space|} = Atom_char ' ')

let test_sexp_lists_and_sugar () =
  let open Sexp in
  (match parse_one "(+ 1 (* 2 3))" with
  | List [ Atom_sym "+"; Atom_int 1; List [ Atom_sym "*"; Atom_int 2; Atom_int 3 ] ] -> ()
  | d -> Alcotest.failf "bad parse: %s" (to_string d));
  (match parse_one "'(a b)" with
  | List [ Atom_sym "quote"; List [ Atom_sym "a"; Atom_sym "b" ] ] -> ()
  | d -> Alcotest.failf "bad quote: %s" (to_string d));
  check_int "two datums" 2 (List.length (parse_all "1 2"))

let test_sexp_comments () =
  let src = "; line comment\n(a #| block #| nested |# comment |# b)" in
  match Sexp.parse_all src with
  | [ Sexp.List [ Sexp.Atom_sym "a"; Sexp.Atom_sym "b" ] ] -> ()
  | _ -> Alcotest.fail "comments mishandled"

let test_sexp_errors () =
  let bad s = match Sexp.parse_all s with
    | exception Sexp.Parse_error _ -> true
    | _ -> false
  in
  check_bool "unterminated list" true (bad "(a b");
  check_bool "unterminated string" true (bad {|"abc|});
  check_bool "stray paren" true (bad ")")

let qcheck_sexp_roundtrip =
  let rec gen_sexp depth =
    let open QCheck.Gen in
    if depth = 0 then
      oneof
        [ map (fun n -> Sexp.Atom_int n) small_signed_int;
          map (fun s -> Sexp.Atom_sym ("s" ^ string_of_int (abs s))) small_int;
          map (fun b -> Sexp.Atom_bool b) bool ]
    else
      frequency
        [ (3, gen_sexp 0);
          (1, map (fun l -> Sexp.List l) (list_size (int_bound 4) (gen_sexp (depth - 1)))) ]
  in
  QCheck.Test.make ~name:"sexp: print/parse roundtrip"
    (QCheck.make (gen_sexp 3))
    (fun d ->
      match Sexp.parse_all (Sexp.to_string d) with [ d' ] -> d = d' | _ -> false)

(* --- fixtures: a guest environment to host heap/VM tests --- *)

let in_guest ?config f =
  let machine = Machine.create ?config () in
  let k = Mv_ros.Kernel.create machine in
  let result = ref None in
  ignore
    (Mv_ros.Kernel.spawn_process k ~name:"guest" (fun p ->
         let env = Mv_guest.Env.native k p in
         result := Some (f env p)));
  Sim.run machine.Machine.sim;
  match !result with Some r -> r | None -> Alcotest.fail "guest did not run"

(* The storage pool is per domain, so a test that counts pooled storage
   runs in a fresh domain, where no earlier test has left any. *)
let in_fresh_domain f = Domain.join (Domain.spawn f)

(* A program that runs [src] on the engine and keeps the engine, for its
   collector's statistics. *)
let engine_program src =
  let engine = ref None in
  ( {
      Multiverse.Toolchain.prog_name = "engine";
      prog_main =
        (fun env ->
          let e = Engine.start env in
          engine := Some e;
          Engine.run_program e src);
    },
    engine )

let gc_stats engine = Sgc.stats (Engine.gc (Option.get !engine))

(* --- Value encodings --- *)

let test_value_immediates () =
  check_int "fixnum roundtrip" 12345 Value.(fixnum_val (fixnum 12345));
  check_int "negative fixnum" (-99) Value.(fixnum_val (fixnum (-99)));
  check_bool "fixnum tagged" true (Value.is_fixnum (Value.fixnum 0));
  check_bool "nil distinct from false" true (Value.nil <> Value.vfalse);
  check_bool "truthiness" true Value.(is_truthy nil && is_truthy vtrue && not (is_truthy vfalse));
  Alcotest.(check char) "char" 'Z' Value.(char_val (char_v 'Z'));
  check_int "symbol id" 7 Value.(sym_id (sym 7));
  check_int "port id" 3 Value.(port_id (port_v 3))

let qcheck_value_fixnum =
  QCheck.Test.make ~name:"value: fixnum roundtrip over range"
    QCheck.(int_range (-(1 lsl 59)) (1 lsl 59))
    (fun n -> Value.fixnum_val (Value.fixnum n) = n && Value.is_fixnum (Value.fixnum n))

let test_value_heap_objects () =
  in_guest (fun env _p ->
      let gc = Sgc.create env () in
      Value.register_scannable gc;
      let p = Value.cons gc (Value.fixnum 1) (Value.fixnum 2) in
      check_bool "pair" true (Value.is_pair gc p);
      check_int "car" 1 (Value.fixnum_val (Value.car gc p));
      check_int "cdr" 2 (Value.fixnum_val (Value.cdr gc p));
      Value.set_car gc p (Value.fixnum 9);
      check_int "set-car!" 9 (Value.fixnum_val (Value.car gc p));
      let v = Value.make_vector gc 5 (Value.fixnum 0) in
      Value.vector_set gc v 3 (Value.fixnum 42);
      check_int "vector" 42 (Value.fixnum_val (Value.vector_ref gc v 3));
      check_int "vector len" 5 (Value.vector_length gc v);
      let s = Value.string_v gc "hello, world" in
      check_string "string roundtrip" "hello, world" (Value.string_val gc s);
      Alcotest.(check char) "string-ref" 'w' (Value.string_ref gc s 7);
      Value.string_set gc s 0 'H';
      check_string "string-set!" "Hello, world" (Value.string_val gc s);
      let f = Value.flonum gc 3.14159 in
      Alcotest.(check (float 1e-12)) "flonum" 3.14159 (Value.flonum_val gc f);
      let neg = Value.flonum gc (-0.5e-300) in
      Alcotest.(check (float 0.)) "flonum bits exact" (-0.5e-300) (Value.flonum_val gc neg);
      let b = Value.box_v gc (Value.fixnum 5) in
      Value.set_box gc b s;
      check_bool "box holds string" true (Value.is_string gc (Value.unbox gc b));
      let lst = Value.list_of gc [ Value.fixnum 1; Value.fixnum 2; Value.fixnum 3 ] in
      check_int "list length" 3 (List.length (Value.to_list gc lst));
      check_bool "equal? structural" true
        (Value.equal gc lst (Value.list_of gc [ Value.fixnum 1; Value.fixnum 2; Value.fixnum 3 ])))

(* --- Sgc --- *)

let test_sgc_collects_garbage () =
  in_guest (fun env _p ->
      let gc = Sgc.create env ~threshold:16_384 () in
      Value.register_scannable gc;
      (* One rooted list survives; masses of garbage pairs do not. *)
      let root = ref (Value.cons gc (Value.fixnum 1) Value.nil) in
      Sgc.set_roots gc (fun visit -> visit !root);
      for _ = 1 to 20_000 do
        ignore (Value.cons gc (Value.fixnum 0) Value.nil)
      done;
      check_bool "collections happened" true ((Sgc.stats gc).Sgc.collections > 0);
      Sgc.collect gc;
      check_bool "live set stays small" true (Sgc.live_bytes gc < 4096);
      (* The rooted object is intact. *)
      check_int "root survived" 1 (Value.fixnum_val (Value.car gc !root)))

let test_sgc_reachability_preserved () =
  in_guest (fun env _p ->
      let gc = Sgc.create env ~threshold:8_192 () in
      Value.register_scannable gc;
      (* A deep structure: every element must survive arbitrary GC. *)
      let root = ref Value.nil in
      Sgc.set_roots gc (fun visit -> visit !root);
      for i = 1 to 5_000 do
        root := Value.cons gc (Value.fixnum i) !root
      done;
      Sgc.collect gc;
      let rec check_list i v =
        if i = 0 then check_bool "end" true (v = Value.nil)
        else begin
          check_bool "still a pair" true (Value.is_pair gc v);
          if Value.fixnum_val (Value.car gc v) <> i then
            Alcotest.failf "corrupted element %d" i;
          check_list (i - 1) (Value.cdr gc v)
        end
      in
      check_list 5_000 !root)

let qcheck_sgc_model =
  (* Model-based: interleave allocations, mutations and forced GCs; every
     value reachable from the root array must match the model. *)
  QCheck.Test.make ~name:"sgc: reachable data survives collections" ~count:30
    QCheck.(list (pair (int_bound 9) (int_bound 1000)))
    (fun ops ->
      in_guest (fun env _p ->
          let gc = Sgc.create env ~threshold:4_096 () in
          Value.register_scannable gc;
          let nroots = 8 in
          let roots = Array.make nroots Value.nil in
          let model = Array.make nroots [] in
          Sgc.set_roots gc (fun visit -> Array.iter visit roots);
          List.iter
            (fun (slot, v) ->
              let slot = slot mod nroots in
              match v mod 3 with
              | 0 ->
                  (* push onto a root list *)
                  roots.(slot) <- Value.cons gc (Value.fixnum v) roots.(slot);
                  model.(slot) <- v :: model.(slot)
              | 1 ->
                  (* drop a root list (make garbage) *)
                  roots.(slot) <- Value.nil;
                  model.(slot) <- []
              | _ -> Sgc.collect gc)
            ops;
          Sgc.collect gc;
          Array.for_all2
            (fun v expected ->
              let actual = List.map Value.fixnum_val (Value.to_list gc v) in
              actual = expected)
            roots model))

let no_huge_pages = { Machine.default_config with huge_pages = false }

let qcheck_sgc_segment_churn =
  (* Many 16-page segments, mapped as vectors of mixed sizes arrive (9000
     words is more than one segment) and unmapped as dropped roots empty
     them, on the default machine and on one without huge pages (where
     segments are not 2 MiB-aligned).  After every step each live vector
     reads back its model, and each dropped vector whose VMA is gone (mmap
     never reuses an address) is no heap pointer and unreadable.  The
     16-page segments whose host storage was freshly allocated never
     outnumber the most segments mapped at once: an unmapped one's
     storage is reused before any new one is allocated.  A 9000-word
     vector that maps takes a larger segment, which is never reused. *)
  let sizes = [| 0; 1; 2; 7; 40; 300; 9000 |] in
  let churn config ops =
    in_guest ~config (fun env p ->
        let gc = Sgc.create env ~segment_pages:16 ~threshold:65_536 () in
        let st = Sgc.stats gc in
        Value.register_scannable gc;
        let nroots = 8 in
        let roots = Array.make nroots Value.nil in
        let model = Array.make nroots (0, 0) in
        let dropped = ref [] and large_maps = ref 0 and most_mapped = ref 1 in
        Sgc.set_roots gc (fun visit -> Array.iter visit roots);
        let drop slot =
          if roots.(slot) <> Value.nil then dropped := roots.(slot) :: !dropped;
          roots.(slot) <- Value.nil
        in
        let intact slot =
          let v = roots.(slot) and seed, len = model.(slot) in
          v = Value.nil
          || Value.vector_length gc v = len
             && List.for_all
                  (fun i -> Value.fixnum_val (Value.vector_ref gc v i) = seed + i)
                  (List.init len Fun.id)
        in
        let gone a =
          Mv_ros.Mm.find_vma p.Mv_ros.Process.mm a <> None
          || (not (Sgc.is_heap_pointer gc a))
             && match Sgc.read_word gc a with _ -> false | exception Invalid_argument _ -> true
        in
        List.for_all
          (fun (slot, size, op) ->
            (match op with
            | 0 | 1 | 2 | 3 | 4 | 5 ->
                drop slot;
                let len = sizes.(size) and seed = (slot * 100_000) + (op * 10_000) in
                let mapped = st.Sgc.segments_mapped in
                let v = Value.make_vector gc len (Value.fixnum 0) in
                if len = 9000 && st.segments_mapped > mapped then incr large_maps;
                for i = 0 to len - 1 do
                  Value.vector_set gc v i (Value.fixnum (seed + i))
                done;
                roots.(slot) <- v;
                model.(slot) <- (seed, len)
            | 6 | 7 -> drop slot
            | _ -> Sgc.collect gc);
            most_mapped := Int.max !most_mapped (st.segments_mapped - st.segments_unmapped);
            List.for_all intact (List.init nroots Fun.id)
            && List.for_all gone !dropped
            && st.segments_mapped - st.segments_recycled - !large_maps <= !most_mapped)
          ops)
  in
  let print = QCheck.Print.(list (triple int int int)) in
  QCheck.Test.make ~name:"sgc: lookups across segment map/unmap churn" ~count:15
    (QCheck.make ~print
       QCheck.Gen.(list_size (int_range 1 40) (triple (int_bound 7) (int_bound 6) (int_bound 9))))
    (fun ops -> churn Machine.default_config ops && churn no_huge_pages ops)

(* After a collection unmaps a segment, the next map reuses its host
   storage, and the new mapping behaves as a fresh one: the old mapping's
   addresses are gone, the first write to each of its pages takes a
   demand-paging fault, a page the next collection protects takes one
   barrier fault, and a new vector reads back its fill.  The counts hold
   in a fresh domain, whose pool starts empty. *)
let recycled_segment () =
  in_guest ~config:no_huge_pages (fun env p ->
      let gc = Sgc.create env ~segment_pages:16 ~threshold:(1 lsl 30) () in
      let st = Sgc.stats gc in
      Value.register_scannable gc;
      Sgc.install_barrier gc;
      let roots = ref [] in
      Sgc.set_roots gc (fun visit -> List.iter visit !roots);
      let minflt () = p.Mv_ros.Process.rusage.Mv_ros.Rusage.minflt in
      let faults f =
        let before = minflt () in
        let v = f () in
        (v, minflt () - before)
      in
      (* 511 payload words and the header fill one page. *)
      let page_vector k = Value.make_vector gc 511 (Value.fixnum k) in
      let doomed = page_vector 7 in
      for _ = 2 to 16 do
        ignore (page_vector 0)
      done;
      let kept, fresh = faults (fun () -> page_vector 0) in
      check_int "second segment mapped" 2 st.Sgc.segments_mapped;
      check_int "a fresh mapping's first write faults" 1 fresh;
      roots := [ kept ];
      Sgc.collect gc;
      check_int "first segment unmapped" 1 st.segments_unmapped;
      check_bool "stale address is not a heap pointer" false (Sgc.is_heap_pointer gc doomed);
      check_bool "stale address unreadable" true
        (match Sgc.read_word gc doomed with _ -> false | exception Invalid_argument _ -> true);
      for _ = 2 to 16 do
        ignore (page_vector 0)
      done;
      let v, first = faults (fun () -> page_vector 5) in
      check_int "third segment mapped" 3 st.segments_mapped;
      check_int "its storage recycled" 1 st.segments_recycled;
      check_int "the recycled mapping's first write faults" 1 first;
      let rest = List.init 15 (fun _ -> snd (faults (fun () -> page_vector 0))) in
      check_bool "one fault per page" true (List.for_all (( = ) 1) rest);
      let (), again = faults (fun () -> Value.vector_set gc v 0 (Value.fixnum 6)) in
      check_int "a written page does not fault again" 0 again;
      roots := [ kept; v ];
      Sgc.collect gc;
      let barrier = st.barrier_faults in
      Value.vector_set gc v 1 (Value.fixnum 6);
      Value.vector_set gc v 2 (Value.fixnum 6);
      check_int "one barrier fault on the protected page" (barrier + 1) st.barrier_faults;
      check_int "old contents intact" 5 (Value.fixnum_val (Value.vector_ref gc v 3));
      let w = Value.make_vector gc 600 (Value.fixnum 9) in
      check_bool "a new vector reads back its fill" true
        (List.for_all (fun i -> Value.vector_ref gc w i = Value.fixnum 9) (List.init 600 Fun.id)))

let test_sgc_recycled_segment () = in_fresh_domain recycled_segment

let test_sgc_write_barrier () =
  in_guest (fun env p ->
      let gc = Sgc.create env () in
      Value.register_scannable gc;
      Sgc.install_barrier gc;
      let root = ref (Value.cons gc (Value.fixnum 1) Value.nil) in
      Sgc.set_roots gc (fun visit -> visit !root);
      Sgc.collect gc;
      (* Post-GC pages are protected; the first mutation trips SIGSEGV. *)
      let faults0 = (Sgc.stats gc).Sgc.barrier_faults in
      Value.set_car gc !root (Value.fixnum 2);
      check_int "one barrier fault" (faults0 + 1) (Sgc.stats gc).Sgc.barrier_faults;
      Value.set_car gc !root (Value.fixnum 3);
      check_int "page now unprotected" (faults0 + 1) (Sgc.stats gc).Sgc.barrier_faults;
      check_int "mutation landed" 3 (Value.fixnum_val (Value.car gc !root));
      (* The barrier ran through the kernel signal machinery. *)
      check_bool "rt_sigreturn counted" true
        (Mv_util.Histogram.count p.Mv_ros.Process.syscall_counts "rt_sigreturn" >= 1))

let test_sgc_segments_unmapped () =
  in_guest (fun env p ->
      let gc = Sgc.create env ~segment_pages:16 ~threshold:(1 lsl 30) () in
      Value.register_scannable gc;
      Sgc.set_roots gc (fun _ -> ());
      (* Fill several segments with garbage, then collect: empty segments
         go back to the OS with munmap (Figure 12's pattern). *)
      let doomed = Value.cons gc (Value.fixnum 7) Value.nil in
      for _ = 1 to 40_000 do
        ignore (Value.cons gc (Value.fixnum 0) Value.nil)
      done;
      let mapped_before = Sgc.mapped_bytes gc in
      (* The last access before the collection is to the first segment,
         which the collection unmaps: no lookup may outlive it. *)
      check_int "doomed object readable" 7 (Value.fixnum_val (Value.car gc doomed));
      Sgc.collect gc;
      check_bool "segments released" true (Sgc.mapped_bytes gc < mapped_before);
      check_bool "unmapped object is not a heap pointer" false (Sgc.is_heap_pointer gc doomed);
      check_bool "unmapped word unreadable" true
        (match Sgc.read_word gc doomed with _ -> false | exception Invalid_argument _ -> true);
      check_bool "munmap syscalls issued" true
        (Mv_util.Histogram.count p.Mv_ros.Process.syscall_counts "munmap" > 0);
      check_bool "unmap stat" true ((Sgc.stats gc).Sgc.segments_unmapped > 0))

let test_sgc_free_list_reuse () =
  in_guest (fun env _p ->
      let gc = Sgc.create env ~threshold:(1 lsl 30) () in
      Value.register_scannable gc;
      let root = ref Value.nil in
      Sgc.set_roots gc (fun visit -> visit !root);
      (* Allocate a keeper between two garbage objects so its segment
         cannot be unmapped; the garbage slots must be reused. *)
      ignore (Value.cons gc (Value.fixnum 0) Value.nil);
      root := Value.cons gc (Value.fixnum 42) Value.nil;
      ignore (Value.cons gc (Value.fixnum 0) Value.nil);
      let mapped = Sgc.mapped_bytes gc in
      Sgc.collect gc;
      for _ = 1 to 1000 do
        ignore (Value.cons gc (Value.fixnum 1) Value.nil);
        Sgc.collect gc
      done;
      check_int "heap did not grow" mapped (Sgc.mapped_bytes gc);
      check_int "keeper intact" 42 (Value.fixnum_val (Value.car gc !root)))

(* --- the storage pool --- *)

(* A heap whose process has exited has handed its storage to the pool:
   it maps nothing, no word is a heap pointer, and every access raises
   instead of reading storage another heap may own by then; its
   statistics keep their values.  The pool keeps page counts apart: the
   next process's heaps each take storage of their own size, and a
   16-page heap still holds 16 pages per segment. *)
let test_sgc_no_access_after_exit () =
  in_fresh_domain (fun () ->
      let gc, v =
        in_guest (fun env _p ->
            let gc = Sgc.create env ~threshold:(1 lsl 30) () in
            ignore (Sgc.create env ~segment_pages:16 ());
            Value.register_scannable gc;
            (gc, Value.cons gc (Value.fixnum 1) Value.nil))
      in
      let outside = Invalid_argument (Printf.sprintf "Sgc: address %x outside heap" v) in
      check_int "nothing mapped" 0 (Sgc.mapped_bytes gc);
      check_bool "no heap pointer" false (Sgc.is_heap_pointer gc v);
      Alcotest.check_raises "read" outside (fun () -> ignore (Sgc.read_word gc v));
      Alcotest.check_raises "write" outside (fun () -> Sgc.write_word gc v 0);
      Alcotest.check_raises "header" outside (fun () -> ignore (Sgc.header gc v));
      check_int "stats kept" 1 (Sgc.stats gc).Sgc.segments_mapped;
      check_int "512-page storage pooled" 1 (Sgc.pooled ~pages:512);
      check_int "16-page storage pooled" 1 (Sgc.pooled ~pages:16);
      in_guest (fun env _p ->
          let small = Sgc.create env ~segment_pages:16 ~threshold:(1 lsl 30) () in
          let big = Sgc.create env () in
          check_int "16-page storage reused" 1 (Sgc.stats small).Sgc.segments_recycled;
          check_int "512-page storage reused" 1 (Sgc.stats big).Sgc.segments_recycled;
          (* 511 payload words and the header fill one page. *)
          for _ = 1 to 17 do
            ignore (Value.make_vector small 511 (Value.fixnum 0))
          done;
          check_int "the 17th page maps a second segment" 2 (Sgc.stats small).Sgc.segments_mapped);
      check_int "both 16-page storages pooled" 2 (Sgc.pooled ~pages:16);
      check_int "the 512-page storage pooled" 1 (Sgc.pooled ~pages:512))

let native p = Multiverse.Toolchain.run_native p
let multiverse p = Multiverse.Toolchain.(run_multiverse (hybridize p))

(* The storage a finished run left in the pool backs the next run's
   heap, and the guest cannot tell: binary-tree-2 at test size, native
   then multiverse and multiverse then native.  Every default-size map
   of the second run is served from the pool, and its stdout, exit
   code, syscall histogram, rusage and wall cycles equal those of the
   same run alone in another fresh domain. *)
let test_sgc_pool_reuse_invisible () =
  let b = Mv_workloads.Benchmarks.find "binary-tree-2" in
  let src = b.Mv_workloads.Benchmarks.b_source b.Mv_workloads.Benchmarks.b_test_n in
  let run mode =
    let prog, engine = engine_program src in
    let rs = mode prog in
    (rs, gc_stats engine)
  in
  List.iter
    (fun (name, first, second) ->
      let (rs, st), pooled =
        in_fresh_domain (fun () ->
            ignore (run first);
            let pooled = Sgc.pooled ~pages:512 in
            (run second, pooled))
      in
      let alone, _ = in_fresh_domain (fun () -> run second) in
      let open Multiverse.Toolchain in
      check_bool (name ^ ": the first run pooled storage") true (pooled > 0);
      check_int (name ^ ": every map served from the pool") st.Sgc.segments_mapped
        st.Sgc.segments_recycled;
      check_string (name ^ ": stdout") alone.rs_stdout rs.rs_stdout;
      check_int (name ^ ": exit code") alone.rs_exit_code rs.rs_exit_code;
      Alcotest.(check (list (pair string int)))
        (name ^ ": syscalls")
        (Mv_util.Histogram.to_sorted_list alone.rs_syscalls)
        (Mv_util.Histogram.to_sorted_list rs.rs_syscalls);
      check_bool (name ^ ": rusage") true (alone.rs_rusage = rs.rs_rusage);
      check_int (name ^ ": wall cycles") alone.rs_wall_cycles rs.rs_wall_cycles)
    [ ("native, multiverse", native, multiverse); ("multiverse, native", multiverse, native) ]

(* A place still parked in place-receive when main returns (main waits
   for its first message, so the place has its heap): the exit hooks
   release both heaps before the place's thread unwinds, and the
   unwinding touches neither.  The process exits cleanly, and the pool
   then holds exactly the storage the two heaps released: the main
   heap's fresh storage and the place's one segment. *)
let test_sgc_exit_with_parked_place () =
  let src =
    {|(define p (place-spawn "(place-send 0 'ready) (place-receive 0)"))
      (display (place-receive p))|}
  in
  List.iter
    (fun (name, mode) ->
      in_fresh_domain (fun () ->
          let prog, engine = engine_program src in
          let rs = mode prog in
          let st = gc_stats engine in
          check_int (name ^ ": exit code") 0 rs.Multiverse.Toolchain.rs_exit_code;
          check_string (name ^ ": stdout") "ready" rs.Multiverse.Toolchain.rs_stdout;
          check_int (name ^ ": pooled")
            (st.Sgc.segments_mapped - st.Sgc.segments_recycled + 1)
            (Sgc.pooled ~pages:512)))
    [ ("native", native); ("multiverse", multiverse) ]

(* --- compiler + VM --- *)

let eval_in_guest src =
  in_guest (fun env _p ->
      let engine = Engine.start env in
      let v = Engine.eval_string engine src in
      let s = Vm.write_string_of (Engine.vm engine) v in
      Engine.finish engine;
      s)

let check_eval expected src = check_string src expected (eval_in_guest src)

let test_eval_basics () =
  check_eval "42" "42";
  check_eval "7" "(+ 3 4)";
  check_eval "10" "(- 20 5 5)";
  check_eval "-5" "(- 5)";
  check_eval "2.5" "(/ 5 2)";
  check_eval "3" "(/ 6 2)";
  check_eval "8" "(expt 2 3)";
  check_eval "#t" "(< 1 2 3)";
  check_eval "#f" "(< 1 3 2)";
  check_eval "3" "(if #t 3 4)";
  check_eval "4" "(if #f 3 4)";
  check_eval "3" "(if 0 3 4)" (* 0 is truthy in Scheme *)

let test_eval_bindings () =
  check_eval "25" "(let ((x 5)) (* x x))";
  check_eval "11" "(let* ((x 5) (y (+ x 1))) (+ x y))";
  check_eval "120" "(letrec ((f (lambda (n) (if (= n 0) 1 (* n (f (- n 1))))))) (f 5))";
  check_eval "3" "(define x 3) x";
  check_eval "9" "(define (sq n) (* n n)) (sq 3)";
  check_eval "7" "(define x 3) (set! x 7) x";
  check_eval "10" "(define (f) (define a 4) (define b 6) (+ a b)) (f)"

let test_eval_closures () =
  check_eval "15" "(define (adder n) (lambda (x) (+ x n))) ((adder 10) 5)";
  check_eval "3" "(define (counter) (let ((n 0)) (lambda () (set! n (+ n 1)) n))) (define c (counter)) (c) (c) (c)";
  check_eval "55" "(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2))))) (fib 10)"

let test_eval_tail_calls () =
  (* A million-iteration loop must not overflow anything. *)
  check_eval "1000000"
    "(let loop ((i 0)) (if (= i 1000000) i (loop (+ i 1))))";
  check_eval "500000500000"
    "(let loop ((i 0) (acc 0)) (if (> i 1000000) acc (loop (+ i 1) (+ acc i))))"

let test_eval_data () =
  check_eval "(1 2 3)" "(list 1 2 3)";
  check_eval "(1 . 2)" "(cons 1 2)";
  check_eval "3" "(length '(a b c))";
  check_eval "(3 2 1)" "(reverse '(1 2 3))";
  check_eval "(1 2 3 4)" "(append '(1 2) '(3 4))";
  check_eval "(b c)" "(memq 'b '(a b c))";
  check_eval "#(0 0 5)" "(define v (make-vector 3 0)) (vector-set! v 2 5) v";
  check_eval "\"abcdef\"" "(string-append \"abc\" \"def\")";
  check_eval "\"bc\"" "(substring \"abcd\" 1 3)";
  check_eval "(1 4 9)" "(map (lambda (x) (* x x)) '(1 2 3))";
  check_eval "6" "(fold-left + 0 '(1 2 3))";
  check_eval "10" "(apply + '(1 2 3 4))";
  check_eval "#\\c" "(string-ref \"abc\" 2)";
  check_eval "99" "(char->integer #\\c)"

let test_eval_control () =
  check_eval "two" {|(case 2 ((1) 'one) ((2) 'two) (else 'other))|};
  check_eval "big" {|(cond ((> 5 10) 'small) ((> 5 1) 'big) (else 'none))|};
  check_eval "45" "(do ((i 0 (+ i 1)) (acc 0 (+ acc i))) ((= i 10) acc))";
  check_eval "#t" "(and 1 2 #t)";
  check_eval "2" "(or #f 2 3)";
  check_eval "yes" "(when (> 2 1) 'yes)";
  check_eval "yes" "(unless (< 2 1) 'yes)"

let test_eval_numeric_tower () =
  check_eval "5.0" "(+ 2 3.0)";
  check_eval "1.5" "(* 0.5 3)";
  check_eval "2" "(sqrt 4)";
  check_eval "1.41421356237" "(sqrt 2.0)";
  check_eval "3" "(inexact->exact 3.7)";
  check_eval "\"0.333333333\"" "(real->decimal-string (/ 1.0 3.0) 9)";
  check_eval "1" "(modulo -5 3)";
  check_eval "-2" "(remainder -5 3)"

let test_eval_errors () =
  let raises src = match eval_in_guest src with _ -> false | exception Vm.Scheme_error _ -> true in
  check_bool "car of non-pair" true (raises "(car 5)");
  check_bool "arity mismatch" true (raises "((lambda (x) x) 1 2)");
  check_bool "undefined global" true (raises "undefined-thing");
  check_bool "vector bounds" true (raises "(vector-ref (make-vector 2 0) 5)");
  check_bool "division by zero" true (raises "(quotient 1 0)");
  check_bool "user error" true (raises {|(error "boom")|});
  (* Wrong-typed arguments are Scheme errors, never a stray heap access. *)
  check_bool "set-car! of non-pair" true (raises "(set-car! 5 1)");
  check_bool "set-cdr! of non-pair" true (raises "(set-cdr! 'a 1)");
  check_bool "list-ref past the end" true (raises "(list-ref (list 1 2) 5)");
  check_bool "list-tail past the end" true (raises "(list-tail (list 1 2) 3)");
  check_bool "vector-length of a pair" true (raises "(vector-length (cons 1 2))");
  check_bool "vector-length of a string" true (raises {|(vector-length "abcdefghijklmnopq")|});
  check_bool "vector-fill! of a list" true (raises "(vector-fill! (list 1 2) 0)");
  check_bool "unbox of a pair" true (raises "(unbox (cons 1 2))");
  check_bool "set-box! of a fixnum" true (raises "(set-box! 3 1)");
  check_bool "char->integer of a fixnum" true (raises "(char->integer 65)");
  check_bool "symbol->string of a fixnum" true (raises "(symbol->string 5)");
  (* String primitives check types, indices and lengths. *)
  check_bool "string-ref past the end" true (raises "(string-ref (make-string 3 #\\a) 10)");
  check_bool "string-ref below zero" true (raises {|(string-ref "abc" -1)|});
  check_bool "string-ref of a fixnum" true (raises "(string-ref 5 0)");
  check_bool "make-string with a fixnum fill" true (raises "(make-string 2 5)");
  check_bool "make-string of negative length" true (raises "(make-string -1 #\\a)");
  check_bool "list->string of fixnums" true (raises "(list->string (list 1 2))");
  check_bool "list->string of an improper list" true (raises "(list->string 5)");
  check_bool "substring past the end" true (raises {|(substring "abc" 2 10)|});
  check_bool "string-append of a fixnum" true (raises {|(string-append "a" 5)|});
  check_bool "string->symbol of a fixnum" true (raises "(string->symbol 5)");
  check_bool "string=? of a fixnum" true (raises {|(string=? "a" 5)|});
  check_bool "string-copy of a fixnum" true (raises "(string-copy 5)");
  check_bool "string->list of a fixnum" true (raises "(string->list 5)");
  (* A write past the end is rejected and leaves the next object intact. *)
  let after =
    in_guest (fun env _p ->
        let engine = Engine.start env in
        ignore (Engine.eval_string engine "(define s (make-string 8 #\\a)) (define v (vector 1 2 3))");
        let rejected =
          match Engine.eval_string engine "(string-set! s 8 #\\z)" with
          | _ -> false
          | exception Vm.Scheme_error _ -> true
        in
        check_bool "string-set! past the end" true rejected;
        let v = Engine.eval_string engine "(list (vector-length v) (vector-ref v 2) s)" in
        let out = Vm.write_string_of (Engine.vm engine) v in
        Engine.finish engine;
        out)
  in
  check_string "vector after the string" "(3 3 \"aaaaaaaa\")" after;
  (* The checks pass well-typed arguments through. *)
  check_eval "(1 9)" "(let ((p (list 1 2))) (set-car! (cdr p) 9) p)";
  check_eval "()" "(list-tail (list 1 2) 2)";
  check_eval "#(7 7)" "(let ((v (make-vector 2 0))) (vector-fill! v 7) v)";
  check_eval "2" "(let ((b (box 1))) (set-box! b 2) (unbox b))";
  check_eval "97" "(char->integer #\\a)";
  check_eval "\"abc\"" "(symbol->string 'abc)";
  check_eval "\"ab\"" "(list->string (list #\\a #\\b))";
  check_eval "\"zbc\"" {|(let ((s (string-copy "abc"))) (string-set! s 0 #\z) s)|};
  check_eval "\"el\"" {|(substring "hello" 1 3)|};
  check_eval "\"\"" {|(substring "abc" 3 3)|};
  check_eval "#\\c" {|(string-ref "abc" 2)|};
  check_eval "\"xx\"" "(make-string 2 #\\x)";
  check_eval "#t" {|(string=? (string-append "a" "b") "ab")|};
  check_eval "(#\\a #\\b)" {|(string->list "ab")|}

(* The list primitives and [apply] reject an argument that is not a
   proper list with a Scheme error naming the primitive and the argument,
   never a host exception. *)
let test_eval_list_errors () =
  let message src =
    match eval_in_guest src with v -> "no error: " ^ v | exception Vm.Scheme_error msg -> msg
  in
  List.iter
    (fun (src, expected) -> check_string src expected (message src))
    [
      ("(reverse 5)", "reverse: expected list, got 5");
      ("(reverse '(1 2 . 3))", "reverse: expected list, got (1 2 . 3)");
      ("(memq 'a 5)", "memq: expected list, got 5");
      ("(member 1 '(2 . 3))", "member: expected list, got (2 . 3)");
      ("(assq 'a 5)", "assq: expected list, got 5");
      ("(assv 1 '((2 . 3) . 4))", "assv: expected list, got ((2 . 3) . 4)");
      ("(append 5 '(1))", "append: expected list, got 5");
      ("(append '(1) '(2 . 3) '(4))", "append: expected list, got (2 . 3)");
      ("(apply + 5)", "apply: expected list, got 5");
      ("(apply + '(1 . 2))", "apply: expected list, got (1 . 2)");
    ];
  (* Proper lists, and a match found before an improper tail, as before. *)
  check_eval "(3 2 1)" "(reverse '(1 2 3))";
  check_eval "()" "(reverse '())";
  check_eval "(a . 5)" "(memq 'a '(a . 5))";
  check_eval "(2 3)" "(member 2 '(1 2 3))";
  check_eval "(b . 2)" "(assq 'b '((a . 1) (b . 2)))";
  check_eval "#f" "(assv 3 '((1 . 2)))";
  check_eval "(1 2 . 3)" "(append '(1) '(2) 3)";
  check_eval "6" "(apply + '(1 2 3))"

(* A REPL line with a list error prints the message; the next line still
   evaluates. *)
let test_repl_list_errors () =
  let machine = Machine.create () in
  let k = Mv_ros.Kernel.create machine in
  let p =
    Mv_ros.Kernel.spawn_process k ~name:"repl" (fun p ->
        let env = Mv_guest.Env.native k p in
        Engine.repl (Engine.start env))
  in
  Mv_ros.Vfs.feed p.Mv_ros.Process.stdin "(reverse 5)\n(apply + '(1 . 2))\n(+ 1 2)\n";
  Mv_ros.Vfs.close_stream p.Mv_ros.Process.stdin;
  Sim.run machine.Machine.sim;
  check_string "repl transcript"
    "> reverse: expected list, got 5\n> apply: expected list, got (1 . 2)\n> 3\n> \n"
    (Mv_ros.Process.stdout_contents p)

(* Two-fixnum [+ - * < > <= >= =] take a direct path in the VM.  It must
   agree with the n-ary path, and both with OCaml arithmetic wrapped to the
   62-bit fixnum; a flonum argument must still take the generic path. *)
let qcheck_fixnum_fast_path =
  let bound = 1 lsl 61 in
  let fixnum =
    QCheck.Gen.(
      oneof
        [
          small_signed_int;
          map (fun k -> bound - 1 - k) small_nat;
          map (fun k -> k - bound) small_nat;
          int_range (-bound) (bound - 1);
        ])
  in
  let operands = QCheck.Gen.(oneof [ pair fixnum fixnum; map (fun a -> (a, a)) fixnum ]) in
  let print = QCheck.Print.(list (pair int int)) in
  QCheck.Test.make ~count:25 ~name:"vm: two-fixnum arithmetic matches the n-ary path"
    (QCheck.make ~print QCheck.Gen.(list_size (int_range 1 8) operands))
    (fun pairs ->
      in_guest (fun env _p ->
          let engine = Engine.start env in
          let eval a b body =
            Engine.eval_string engine (Printf.sprintf "(let ((a %d) (b %d)) %s)" a b body)
            |> Vm.write_string_of (Engine.vm engine)
          in
          let bool x = if x then "#t" else "#f" in
          let fix x = string_of_int ((x lsl 1) asr 1) in
          List.for_all
            (fun (a, b) ->
              eval a b "(+ a b)" = eval a b "(+ a b 0)"
              && eval a b "(+ a b 0)" = fix (a + b)
              && eval a b "(- a b)" = eval a b "(- a b 0)"
              && eval a b "(- a b 0)" = fix (a - b)
              && eval a b "(* a b)" = eval a b "(* a b 1)"
              && eval a b "(* a b 1)" = fix (a * b)
              && eval a b "(< a b)" = bool (a < b)
              && eval a b "(> a b)" = bool (a > b)
              && eval a b "(<= a b)" = bool (a <= b)
              && eval a b "(>= a b)" = bool (a >= b)
              && eval a b "(= a b)" = bool (a = b)
              && eval a b "(+ a 0.5)" = eval a b "(+ a 0.5 0)")
            pairs))

let test_eval_gc_under_pressure () =
  (* Allocation-heavy nested data with live working set: exercises GC
     while the VM stack holds intermediate references. *)
  check_eval "275"
    "(define (build n) (if (= n 0) '() (cons n (build (- n 1)))))\n\
     (define (sum l) (if (null? l) 0 (+ (car l) (sum (cdr l)))))\n\
     (let loop ((i 0) (best 0))\n\
       (if (= i 50) best (loop (+ i 1) (max best (sum (build 100))))))\n\
     (let ((keep (build 100)))\n\
       (let loop ((i 0)) (if (= i 200) (void) (begin (build 50) (loop (+ i 1)))))\n\
       (* 5 (sum (build 10)) (if (pair? keep) 1 0) (if (= (sum keep) 5050) 1 0)))\n\
     "

(* --- engine --- *)

let test_engine_startup_profile () =
  in_guest (fun env p ->
      let _engine = Engine.start env in
      let h = p.Mv_ros.Process.syscall_counts in
      let c name = Mv_util.Histogram.count h name in
      (* Figure 11's shape: mmap dominates (libs + heap + JIT), with the
         dynamic-linker open/read/fstat/close cluster, the GC's
         rt_sigaction/rt_sigprocmask, and stat for the collects paths. *)
      check_bool "mmap cluster" true (c "mmap" >= 8);
      check_int "six libs opened" 6 (c "open");
      check_int "six libs read" 6 (c "read");
      check_int "six libs fstat" 6 (c "fstat");
      check_int "closed" 6 (c "close");
      check_int "sigaction for GC barrier" 1 (c "rt_sigaction");
      check_int "sigprocmask pair" 2 (c "rt_sigprocmask");
      check_bool "collects stats" true (c "stat" >= 6);
      check_int "timer" 1 (c "setitimer"))

let test_engine_repl () =
  let machine = Machine.create () in
  let k = Mv_ros.Kernel.create machine in
  let p =
    Mv_ros.Kernel.spawn_process k ~name:"repl" (fun p ->
        let env = Mv_guest.Env.native k p in
        let engine = Engine.start env in
        Engine.repl engine)
  in
  Mv_ros.Vfs.feed p.Mv_ros.Process.stdin "(+ 1 2)\n(define x 10)\n(* x x)\n";
  Mv_ros.Vfs.close_stream p.Mv_ros.Process.stdin;
  Sim.run machine.Machine.sim;
  let out = Mv_ros.Process.stdout_contents p in
  check_string "repl transcript" "> 3\n> > 100\n> \n" out

let test_engine_tick_syscalls () =
  in_guest (fun env p ->
      let engine = Engine.start env in
      let before = Mv_util.Histogram.count p.Mv_ros.Process.syscall_counts "gettimeofday" in
      ignore (Engine.eval_string engine "(let loop ((i 0)) (if (= i 300000) i (loop (+ i 1))))");
      let after = Mv_util.Histogram.count p.Mv_ros.Process.syscall_counts "gettimeofday" in
      (* The green-thread scheduler checks the clock as the program runs. *)
      check_bool "timer chatter while running" true (after - before > 5))

(* Where the ticks fall and what the run is charged, pinned as literals:
   the instruction count at every [on_tick] and the process's user time
   over a session of three forms, the second of which escapes a loop with
   a Scheme error (so its end-of-run flush never happens and its
   remainder carries into the third). *)
let test_vm_tick_boundaries () =
  let ticks = ref [] and total = ref 0 in
  let prog =
    {
      Multiverse.Toolchain.prog_name = "ticks";
      prog_main =
        (fun env ->
          let engine = Engine.start env in
          let vm = Engine.vm engine in
          Vm.set_on_tick vm (fun vm -> ticks := Vm.instructions_executed vm :: !ticks);
          let eval src = ignore (Engine.eval_string engine src) in
          eval
            "(define (sum n) (let loop ((i 0) (acc 0)) (if (= i n) acc (loop (+ i 1) (+ acc i)))))\n\
             (sum 700)";
          (match eval "(let loop ((i 0)) (if (= i 900) (car i) (loop (+ i 1))))" with
          | () -> ()
          | exception Vm.Scheme_error _ -> ticks := -1 :: !ticks);
          eval "(sum 1000)";
          total := Vm.instructions_executed vm;
          Engine.finish engine);
    }
  in
  let rs = Multiverse.Toolchain.run_native prog in
  Alcotest.(check (list int))
    "instruction count at every tick (-1: the error)"
    [ 2132; 4180; 6228; 8276; 10555; 12603; 14651; -1; 16699; 18747; 20795; 22843; 24891; 26939 ]
    (List.rev !ticks);
  check_int "instructions executed" 28639 !total;
  check_int "user time (cycles)" 265180 rs.Multiverse.Toolchain.rs_rusage.Mv_ros.Rusage.utime

(* --- the display: each activation's copy of its environment chain --- *)

(* Evaluate [forms] in one engine, one [eval_string] each (as REPL lines
   are), checking every live activation's display against its
   environment chain at every tick and after each form; the last form's
   value, written. *)
let eval_checked forms =
  in_guest (fun env _p ->
      let engine = Engine.start env in
      let vm = Engine.vm engine in
      Vm.set_on_tick vm Vm.check_display;
      let last = ref "" in
      List.iter
        (fun src ->
          let v = Engine.eval_string engine src in
          Vm.check_display vm;
          last := Vm.write_string_of vm v)
        forms;
      Engine.finish engine;
      !last)

let check_checked expected forms =
  check_string (String.concat " " forms) expected (eval_checked forms)

let make_adder = "(define (make-adder a) (let ((b (* a 2))) (lambda (x) (+ x a b))))"

(* The seven CLBG programs at test size, with the display checked at
   every tick: the same stdout as the plain run. *)
let test_display_clbg () =
  List.iter
    (fun (b : Mv_workloads.Benchmarks.t) ->
      let n = b.b_test_n and checks = ref 0 in
      let prog =
        {
          Multiverse.Toolchain.prog_name = b.b_name;
          prog_main =
            (fun env ->
              let engine = Engine.start env in
              Vm.set_on_tick (Engine.vm engine) (fun vm ->
                  incr checks;
                  Vm.check_display vm);
              Engine.run_program engine (b.b_source n));
        }
      in
      let checked = Multiverse.Toolchain.run_native prog in
      let plain = Multiverse.Toolchain.run_native (Mv_workloads.Benchmarks.program b ~n) in
      check_string (b.b_name ^ ": stdout") plain.rs_stdout checked.rs_stdout;
      check_bool (b.b_name ^ ": display checked") true (!checks > 0))
    Mv_workloads.Benchmarks.all

(* A named let inside a named let: the inner loop's closure environment
   is the caller's frame, so its display is copied from the caller's. *)
let test_display_copy () =
  let grid =
    "(define (grid n) (let outer ((i 0) (acc '())) (if (= i n) (reverse acc) (outer (+ i 1) \
     (let inner ((j 0) (row 0)) (if (= j n) (cons row acc) (inner (+ j 1) (+ row (* i j) n))))))))"
  in
  check_checked "(16 22 28 34)" [ grid; "(grid 4)" ];
  check_checked "672400" [ grid; "(apply + (grid 40))" ];
  (* Sibling closures tail-calling each other share the display below. *)
  check_checked "(#f #t)"
    [
      "(define (parity n) (letrec ((ev? (lambda (k) (if (= k 0) #t (od? (- k 1))))) (od? (lambda \
       (k) (if (= k 0) #f (ev? (- k 1)))))) (list (ev? n) (od? n))))";
      "(parity 5001)";
    ]

(* A closure returned upward and called from another lexical context,
   here or from a later REPL line: its display is walked from its
   environment's parent links. *)
let test_display_walk () =
  let twice = "(define (apply-twice f v) (f (f v)))" in
  check_checked "19" [ make_adder; "(define add3 (make-adder 3))"; twice; "(apply-twice add3 1)" ];
  check_checked "10" [ make_adder; "(define add3 (make-adder 3))"; "(add3 1)" ];
  check_checked "(1 2 3 4 5 6 7 8 9 10)"
    [
      "(define curried (lambda (a) (lambda (b) (lambda (c) (lambda (d) (lambda (e) (lambda (f) \
       (lambda (g) (lambda (h) (lambda (i) (lambda (j) (list a b c d e f g h i j))))))))))))";
      "((((((((((curried 1) 2) 3) 4) 5) 6) 7) 8) 9) 10)";
    ]

(* A loop whose body tail-calls, from inside a [let], a closure whose
   environment is two levels deep: the caller's frames are recycled
   before the callee's display overwrites the levels they sat at. *)
let test_display_tail_from_let () =
  check_checked "15000"
    [
      "(define (make-stepper a) (let ((b (* a 2))) (lambda (i acc) (g i (+ acc a b)))))";
      "(define step (make-stepper 1))";
      "(define (g i acc) (if (= i 0) acc (let ((j (- i 1))) (step j acc))))";
      "(g 5000 0)";
    ]

(* Self-tail calls overwrite the frame in place only when the closure's
   environment is the frame's parent: two closures of one code with
   different environments must not share a frame. *)
let test_display_self_tail () =
  check_checked "12497500"
    [ "(let loop ((i 0) (acc 0)) (if (= i 5000) acc (loop (+ i 1) (+ acc i))))" ];
  check_checked "505"
    [
      "(define (make-pinger base) (lambda (i next self acc) (if (= i 0) acc (next (- i 1) self next \
       (+ acc base)))))";
      "(define p1 (make-pinger 1))";
      "(define p2 (make-pinger 100))";
      "(p1 10 p2 p1 0)";
    ]

(* A [let] in non-tail position leaves its frame with [PopFrame]; the
   references after it see the outer levels again. *)
let test_display_popframe () =
  check_checked "36"
    [
      "(define (pf a) (let ((x (* a 10))) (let ((y (+ x 1))) (set! x y)) (let ((z 2)) (+ x z a))))";
      "(pf 3)";
    ];
  check_checked "12" [ "(let ((x 10)) (let ((y 1)) y) (let ((z 2)) (+ x z)))" ]

(* Thirteen nested lets, deeper than a display's initial capacity, with
   a closure at the bottom called in place (copy) and from top level
   (walk). *)
let test_display_deep () =
  let vars = List.init 13 (Printf.sprintf "a%d") in
  let lets =
    List.init 12 (fun i -> Printf.sprintf "(let ((a%d (+ a%d 1))) " (i + 1) i) |> String.concat ""
  in
  let deep =
    Printf.sprintf
      "(define (deep a0) %s(let ((f (lambda (k) (+ %s k)))) (set! saved f) (f 100))%s)" lets
      (String.concat " " vars) (String.make 12 ')')
  in
  check_checked "(191 1091)"
    [ "(define saved #f)"; deep; "(define r (deep 1))"; "(list r (saved 1000))" ]

let test_display_apply_and_varargs () =
  check_checked "(11 6 10)"
    [
      make_adder;
      "(define (sum3 a b c) (+ a b c))";
      "(let ((f (make-adder 2))) (list (apply f (list 5)) (apply sum3 (list 1 2 3)) (apply + (list \
       1 2 3 4))))";
    ];
  check_checked "(6 (5 6 -1) 15 5 10)"
    [
      "(define plus +)";
      "(define (call-op op) (op 10 5))";
      "(list (plus 1 2 3) (map (lambda (f) (f 2 3)) (list + * -)) (call-op +) (call-op -) (call-op \
       max))";
    ]

let test_display_places () =
  check_eval "900"
    {|
(define p (place-spawn "(define (make-adder a) (let ((b (* a 2))) (lambda (x) (+ x a b))))
                        (define add3 (make-adder 3))
                        (place-send 0 (let loop ((i 0) (acc 0)) (if (= i 100) acc (loop (+ i 1) (add3 acc)))))"))
(define r (place-receive p))
(place-wait p)
r
|}

(* A Scheme error escapes forty activations deep; the run's activations
   go with it, and the next lines evaluate with consistent displays. *)
let test_display_repl_after_error () =
  let machine = Machine.create () in
  let k = Mv_ros.Kernel.create machine in
  let p =
    Mv_ros.Kernel.spawn_process k ~name:"repl" (fun p ->
        let env = Mv_guest.Env.native k p in
        let engine = Engine.start env in
        Vm.set_on_tick (Engine.vm engine) Vm.check_display;
        Engine.repl engine;
        Vm.check_display (Engine.vm engine))
  in
  Mv_ros.Vfs.feed p.Mv_ros.Process.stdin
    (String.concat "\n"
       [
         make_adder;
         "(define add3 (make-adder 3))";
         "(define (dive n) (if (= n 0) (car n) (let ((m (- n 1))) (+ 1 (dive m)))))";
         "(dive 40)";
         "(add3 1)";
         "(let loop ((i 0) (acc 0)) (if (= i 1000) acc (loop (+ i 1) (add3 acc))))";
         "";
       ]);
  Mv_ros.Vfs.close_stream p.Mv_ros.Process.stdin;
  Sim.run machine.Machine.sim;
  check_string "repl transcript" "> > > > car: expected pair, got 0\n> 10\n> 9000\n> \n"
    (Mv_ros.Process.stdout_contents p)

(* A Scheme error that escapes a deep recursion leaves none of its
   activations, stack slots or temps behind as GC roots: after each failed
   form and a collection, the live heap is what it was before the first.
   Each of the eight activations holds a 50,000-slot vector. *)
let test_vm_error_drops_roots () =
  in_guest (fun env _p ->
      let engine = Engine.start env in
      let eval src = ignore (Engine.eval_string engine src) in
      eval
        "(define (dive n) (if (= n 0) (car n) (let ((v (make-vector 50000 0))) (+ 1 (dive (- n \
         1))))))";
      eval "(collect-garbage)";
      let before = Sgc.live_bytes (Engine.gc engine) in
      for i = 1 to 2 do
        (match eval "(dive 8)" with
        | () -> Alcotest.fail "dive returned"
        | exception Vm.Scheme_error _ -> ());
        eval "(collect-garbage)";
        check_int (Printf.sprintf "live bytes after failed dive %d" i) before
          (Sgc.live_bytes (Engine.gc engine))
      done;
      Engine.finish engine)

(* --- places (parallel Scheme; paper future work) --- *)

let test_places_roundtrip () =
  let out =
    eval_in_guest
      {|
(define p (place-spawn "(place-send 0 (list 'hi 42 \"str\" 3.5 #\\x '(1 2)))"))
(define msg (place-receive p))
(place-wait p)
msg
|}
  in
  check_string "message deep-copied across heaps" {|(hi 42 "str" 3.5 #\x (1 2))|} out

let test_places_bidirectional () =
  let out =
    eval_in_guest
      {|
(define doubler "(let loop ()
                   (let ((v (place-receive 0)))
                     (unless (eq? v 'stop)
                       (place-send 0 (* 2 v))
                       (loop))))")
(define p (place-spawn doubler))
(place-send p 21)
(define a (place-receive p))
(place-send p 100)
(define b (place-receive p))
(place-send p 'stop)
(place-wait p)
(list a b)
|}
  in
  check_string "request/response pairs" "(42 200)" out

let test_places_parallel_speedup () =
  let worker =
    "(define s (let loop ((i 0) (acc 0)) (if (= i 200000) acc (loop (+ i 1) (+ acc i))))) \
     (place-send 0 s)"
  in
  let par =
    Printf.sprintf
      "(define p1 (place-spawn %S)) (define p2 (place-spawn %S)) \
       (+ (place-receive p1) (place-receive p2))"
      worker worker
  in
  let ser =
    "(define (work) (let loop ((i 0) (acc 0)) (if (= i 200000) acc (loop (+ i 1) (+ acc i))))) \
     (+ (work) (work))"
  in
  let time src =
    let machine = Machine.create () in
    let k = Mv_ros.Kernel.create machine in
    let out = ref "" in
    let p =
      Mv_ros.Kernel.spawn_process k ~name:"places" (fun p ->
          let env = Mv_guest.Env.native k p in
          let engine = Engine.start env in
          out := Vm.write_string_of (Engine.vm engine) (Engine.eval_string engine src))
    in
    Sim.run machine.Machine.sim;
    (!out, Mv_ros.Kernel.runtime_of k p)
  in
  let out_p, w_p = time par in
  let out_s, w_s = time ser in
  check_string "same sum" out_s out_p;
  (* Two ROS cores run the places concurrently: close to 2x. *)
  check_bool "parallel speedup > 1.6x" true
    (float_of_int w_s /. float_of_int w_p > 1.6)

(* What [place-send] of [value] to a fresh place does: "sent", or the
   Scheme error it raises. *)
let place_send_outcome value =
  in_guest (fun env _p ->
      let engine = Engine.start env in
      let src =
        Printf.sprintf {|(define p (place-spawn "(place-receive 0)")) (place-send p %s)|} value
      in
      let outcome =
        match Engine.eval_string engine src with
        | _ -> "sent"
        | exception Vm.Scheme_error msg -> msg
      in
      Engine.finish engine;
      outcome)

let test_places_not_transferable () =
  (* Sending a closure must raise a Scheme error, not corrupt the other
     heap. *)
  check_string "closures are not transferable"
    "place-send: procedure values are not transferable"
    (place_send_outcome "(lambda (x) x)")

let test_places_improper_list_not_transferable () =
  (* A dotted tail has no message form: sending one, bare or nested, is a
     Scheme error the program sees, not a crash of the VM. *)
  let refused = "place-send: improper list values are not transferable" in
  check_string "dotted pair" refused (place_send_outcome "(cons 1 2)");
  check_string "nested dotted list" refused (place_send_outcome "(vector (list 1 (cons 2 3)))")

(* --- file ports --- *)

let test_ports_write_read_roundtrip () =
  let out =
    eval_in_guest
      {|
(define o (open-output-file "/tmp/out.scm"))
(display "line one" o) (newline o)
(write '(1 "two" #\3) o) (newline o)
(close-output-port o)
(define i (open-input-file "/tmp/out.scm"))
(define l1 (read-line i))
(define l2 (read-line i))
(define l3 (read-line i))
(close-input-port i)
(list l1 l2 (eof-object? l3) (port? i) (port? l1))
|}
  in
  check_string "file roundtrip" {|("line one" "(1 \"two\" #\\3)" #t #t #f)|} out

let test_ports_read_char () =
  let out =
    eval_in_guest
      {|
(define o (open-output-file "/tmp/chars"))
(write-string "ab" o)
(close-port o)
(define i (open-input-file "/tmp/chars"))
(define a (read-char i))
(define b (read-char i))
(define c (read-char i))
(close-port i)
(list a b (eof-object? c))
|}
  in
  check_string "chars then eof" {|(#\a #\b #t)|} out

let test_ports_errors () =
  let raises src = match eval_in_guest src with _ -> false | exception _ -> true in
  check_bool "missing file" true (raises {|(open-input-file "/no/such/file")|});
  check_bool "closed port" true
    (raises
       {|(define o (open-output-file "/tmp/x")) (close-port o) (display "y" o)|})

let test_prelude_sort_and_hash () =
  check_eval "(1 1 2 3 4 5 6 9)" "(sort '(3 1 4 1 5 9 2 6) <)";
  check_eval "(9 6 5 4 3 2 1 1)" "(sort '(3 1 4 1 5 9 2 6) >)";
  check_eval "()" "(sort '() <)";
  check_eval "(b . 2)" "(assoc 'b '((a . 1) (b . 2)))";
  check_eval "#f" {|(assoc "z" '(("a" . 1)))|};
  (* hash tables: insert enough to force a resize, then look everything up *)
  check_eval "(#t 100 none 64)"
    {|
(define h (make-hash))
(let loop ((i 0))
  (when (< i 64)
    (hash-set! h (number->string i) (* i i))
    (loop (+ i 1))))
(hash-set! h 'key 'sym-value)
(hash-set! h 'key 100)  ; overwrite
(list (hash-has-key? h "63")
      (hash-ref h 'key 'missing)
      (hash-ref h "999" 'none)
      (let loop ((i 0) (ok 0))
        (if (= i 64)
            ok
            (loop (+ i 1)
                  (if (= (hash-ref h (number->string i) -1) (* i i)) (+ ok 1) ok)))))
|}

let suite =
  [
    ("sexp: atoms", `Quick, test_sexp_atoms);
    ("sexp: lists and quote", `Quick, test_sexp_lists_and_sugar);
    ("sexp: comments", `Quick, test_sexp_comments);
    ("sexp: parse errors", `Quick, test_sexp_errors);
    QCheck_alcotest.to_alcotest qcheck_sexp_roundtrip;
    ("value: immediates", `Quick, test_value_immediates);
    QCheck_alcotest.to_alcotest qcheck_value_fixnum;
    ("value: heap objects", `Quick, test_value_heap_objects);
    ("sgc: collects garbage, keeps roots", `Quick, test_sgc_collects_garbage);
    ("sgc: deep reachability preserved", `Quick, test_sgc_reachability_preserved);
    (let name, _, fn = QCheck_alcotest.to_alcotest qcheck_sgc_model in
     (name, `Slow, fn));
    (let name, _, fn = QCheck_alcotest.to_alcotest qcheck_sgc_segment_churn in
     (name, `Quick, fn));
    ("sgc: a recycled segment maps as a fresh one", `Quick, test_sgc_recycled_segment);
    ("sgc: mprotect write barrier", `Quick, test_sgc_write_barrier);
    ("sgc: empty segments munmapped", `Quick, test_sgc_segments_unmapped);
    ("sgc: free-list reuse, no growth", `Quick, test_sgc_free_list_reuse);
    ("sgc: no access after the process exits", `Quick, test_sgc_no_access_after_exit);
    ("sgc: pooled storage is invisible to the next run", `Quick, test_sgc_pool_reuse_invisible);
    ("sgc: exit with a parked place", `Quick, test_sgc_exit_with_parked_place);
    ("eval: arithmetic and conditionals", `Quick, test_eval_basics);
    ("eval: bindings", `Quick, test_eval_bindings);
    ("eval: closures", `Quick, test_eval_closures);
    ("eval: proper tail calls", `Slow, test_eval_tail_calls);
    ("eval: data structures", `Slow, test_eval_data);
    ("eval: control forms", `Quick, test_eval_control);
    ("eval: numeric tower", `Quick, test_eval_numeric_tower);
    ("eval: runtime errors", `Quick, test_eval_errors);
    ("eval: list primitives reject non-lists", `Quick, test_eval_list_errors);
    (* cheap enough for the quick tier, which skips QCheck's default `Slow *)
    (let name, _, fn = QCheck_alcotest.to_alcotest qcheck_fixnum_fast_path in
     (name, `Quick, fn));
    ("eval: GC under pressure", `Quick, test_eval_gc_under_pressure);
    ("engine: startup syscall profile (Fig 11)", `Quick, test_engine_startup_profile);
    ("engine: REPL", `Quick, test_engine_repl);
    ("engine: REPL after a list error", `Quick, test_repl_list_errors);
    ("engine: scheduler tick syscalls", `Quick, test_engine_tick_syscalls);
    ("vm: tick boundaries and instruction charge", `Quick, test_vm_tick_boundaries);
    ("vm: display checked over the CLBG programs", `Quick, test_display_clbg);
    ("vm: display copied for nested named lets", `Quick, test_display_copy);
    ("vm: display walked for closures from elsewhere", `Quick, test_display_walk);
    ("vm: tail call from a let recycles first", `Quick, test_display_tail_from_let);
    ("vm: self-tail calls", `Quick, test_display_self_tail);
    ("vm: non-tail let pops its level", `Quick, test_display_popframe);
    ("vm: display deeper than its capacity", `Quick, test_display_deep);
    ("vm: apply and variadic primitives as values", `Quick, test_display_apply_and_varargs);
    ("vm: closures in a place", `Quick, test_display_places);
    ("vm: REPL after an error escapes deep", `Quick, test_display_repl_after_error);
    ("vm: an escaped error leaves no GC roots", `Quick, test_vm_error_drops_roots);
    ("places: message roundtrip", `Quick, test_places_roundtrip);
    ("places: bidirectional channel", `Quick, test_places_bidirectional);
    ("places: parallel speedup", `Slow, test_places_parallel_speedup);
    ("places: closures not transferable", `Quick, test_places_not_transferable);
    ("places: improper lists not transferable", `Quick, test_places_improper_list_not_transferable);
    ("ports: file write/read roundtrip", `Quick, test_ports_write_read_roundtrip);
    ("ports: read-char and EOF", `Quick, test_ports_read_char);
    ("ports: error cases", `Quick, test_ports_errors);
    ("prelude: sort, assoc, hash tables", `Quick, test_prelude_sort_and_hash);
  ]
