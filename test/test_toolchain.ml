(* Tests for the Multiverse toolchain components: the fat-binary container
   format, the override configuration language, and symbol resolution. *)

open Multiverse

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* --- Fat_binary --- *)

let test_fat_roundtrip () =
  let fat =
    Fat_binary.empty
    |> Fat_binary.add_section ~name:".text" ~data:"CODE"
    |> Fat_binary.add_section ~name:".hrt.image" ~data:(String.make 1000 '\x7f')
    |> Fat_binary.add_section ~name:".mv.overrides" ~data:""
  in
  let bytes = Fat_binary.encode fat in
  match Fat_binary.decode bytes with
  | Ok fat' ->
      Alcotest.(check (list string))
        "section order preserved" [ ".text"; ".hrt.image"; ".mv.overrides" ]
        (Fat_binary.section_names fat');
      check_string "text" "CODE" (Option.get (Fat_binary.section fat' ".text"));
      check_int "image size" 1000 (Fat_binary.section_size fat' ".hrt.image");
      check_string "empty section" "" (Option.get (Fat_binary.section fat' ".mv.overrides"))
  | Error e -> Alcotest.failf "decode failed: %s" e

let test_fat_rejects_garbage () =
  check_bool "bad magic" true (Result.is_error (Fat_binary.decode "ELF\x7f..."));
  (* Truncations anywhere must be detected, never crash. *)
  let good =
    Fat_binary.encode (Fat_binary.add_section Fat_binary.empty ~name:"s" ~data:"0123456789")
  in
  for cut = 0 to String.length good - 1 do
    match Fat_binary.decode (String.sub good 0 cut) with
    | Ok t ->
        if cut >= 6 then
          check_int "only valid prefix parses" 0 (List.length (Fat_binary.section_names t))
    | Error _ -> ()
  done

let test_fat_duplicate_rejected () =
  let fat = Fat_binary.add_section Fat_binary.empty ~name:"a" ~data:"1" in
  Alcotest.check_raises "duplicate" (Invalid_argument "Fat_binary.add_section: duplicate section a")
    (fun () -> ignore (Fat_binary.add_section fat ~name:"a" ~data:"2"))

let qcheck_fat_roundtrip =
  QCheck.Test.make ~name:"fat binary: encode/decode roundtrip" ~count:100
    QCheck.(small_list (pair (string_of_size (Gen.int_bound 20)) (string_of_size (Gen.int_bound 200))))
    (fun sections ->
      (* de-duplicate names, drop empties *)
      let seen = Hashtbl.create 8 in
      let sections =
        List.filter
          (fun (name, _) ->
            if name = "" || Hashtbl.mem seen name then false
            else begin
              Hashtbl.add seen name ();
              true
            end)
          sections
      in
      let fat =
        List.fold_left
          (fun acc (name, data) -> Fat_binary.add_section acc ~name ~data)
          Fat_binary.empty sections
      in
      match Fat_binary.decode (Fat_binary.encode fat) with
      | Ok fat' ->
          List.for_all
            (fun (name, data) -> Fat_binary.section fat' name = Some data)
            sections
          && List.length (Fat_binary.section_names fat') = List.length sections
      | Error _ -> false)

(* --- Override_config --- *)

let test_config_parse () =
  let text =
    "# developer overrides\n\
     override pthread_create = nk_thread_create cost=450 args=4\n\
     \n\
     override mmap = nk_mmap cost=320\n"
  in
  match Override_config.parse text with
  | Ok cfg ->
      check_int "two entries" 2 (List.length cfg.Override_config.entries);
      (match Override_config.find cfg ~legacy:"pthread_create" with
      | Some e ->
          check_string "symbol" "nk_thread_create" e.Override_config.ov_symbol;
          check_int "cost" 450 e.Override_config.ov_cost;
          check_int "args" 4 e.Override_config.ov_args
      | None -> Alcotest.fail "missing entry");
      check_bool "mem" true (Override_config.mem cfg ~legacy:"mmap");
      check_bool "absent" false (Override_config.mem cfg ~legacy:"read")
  | Error e -> Alcotest.failf "parse failed: %s" e

let test_config_roundtrip () =
  let cfg = Override_config.default in
  match Override_config.parse (Override_config.to_text cfg) with
  | Ok cfg' -> check_bool "roundtrip" true (cfg = cfg')
  | Error e -> Alcotest.failf "roundtrip failed: %s" e

let test_config_errors () =
  let bad text =
    match Override_config.parse text with Error _ -> true | Ok _ -> false
  in
  check_bool "missing =" true (bad "override foo nk_foo\n");
  check_bool "bad cost" true (bad "override foo = nk_foo cost=abc\n");
  check_bool "unknown option" true (bad "override foo = nk_foo color=red\n");
  (* Error messages carry the line number. *)
  match Override_config.parse "# ok\noverride broken\n" with
  | Error msg -> check_bool "line number" true (String.length msg > 6 && String.sub msg 0 6 = "line 2")
  | Ok _ -> Alcotest.fail "expected error"

(* --- Symbols --- *)

let test_symbol_costs () =
  let machine = Mv_engine.Machine.create () in
  let nk = Mv_aerokernel.Nautilus.create machine in
  Mv_aerokernel.Nautilus.register_func nk ~name:"nk_test" ~cost:100 (fun () -> ());
  let measure symbols =
    let cost = ref 0 in
    ignore
      (Mv_engine.Exec.spawn machine.Mv_engine.Machine.exec ~cpu:0 ~name:"m" (fun () ->
           let t0 = Mv_engine.Exec.local_now machine.Mv_engine.Machine.exec in
           ignore (Symbols.lookup symbols "nk_test");
           ignore (Symbols.lookup symbols "nk_test");
           cost := Mv_engine.Exec.local_now machine.Mv_engine.Machine.exec - t0));
    Mv_engine.Sim.run machine.Mv_engine.Machine.sim;
    !cost
  in
  let without = measure (Symbols.create nk ~use_cache:false) in
  let with_cache = measure (Symbols.create nk ~use_cache:true) in
  let costs = machine.Mv_engine.Machine.costs in
  check_int "two full lookups" (2 * costs.Mv_hw.Costs.symbol_lookup) without;
  check_int "miss then hit"
    (costs.Mv_hw.Costs.symbol_lookup + costs.Mv_hw.Costs.symbol_cache_hit)
    with_cache

let test_symbol_not_found () =
  let machine = Mv_engine.Machine.create () in
  let nk = Mv_aerokernel.Nautilus.create machine in
  let symbols = Symbols.create nk ~use_cache:true in
  let raised = ref false in
  ignore
    (Mv_engine.Exec.spawn machine.Mv_engine.Machine.exec ~cpu:0 ~name:"m" (fun () ->
         match Symbols.lookup symbols "nk_missing" with
         | _ -> ()
         | exception Not_found -> raised := true));
  Mv_engine.Sim.run machine.Mv_engine.Machine.sim;
  check_bool "Not_found" true !raised

(* --- hybridize glue --- *)

let test_hybridize_embeds_everything () =
  let overrides =
    Override_config.add Override_config.empty
      { Override_config.ov_legacy = "mmap"; ov_symbol = "nk_mmap"; ov_cost = 320; ov_args = 3 }
  in
  let hx =
    Toolchain.hybridize ~overrides ~image_kb:64
      { Toolchain.prog_name = "demo"; prog_main = (fun _ -> ()) }
  in
  check_int "image sized as requested" (64 * 1024)
    (Fat_binary.section_size hx.Toolchain.hx_fat Fat_binary.sec_hrt_image);
  check_bool "overrides embedded" true
    (match Fat_binary.section hx.Toolchain.hx_fat Fat_binary.sec_overrides with
    | Some text -> (
        match Override_config.parse text with
        | Ok cfg -> Override_config.mem cfg ~legacy:"mmap"
        | Error _ -> false)
    | None -> false);
  (* The on-disk bytes are the decoded fat binary. *)
  match Fat_binary.decode (Fat_binary.encode hx.Toolchain.hx_fat) with
  | Ok fat -> check_bool "bytes decode" true (Fat_binary.section_names fat <> [])
  | Error e -> Alcotest.failf "encoded fat binary corrupt: %s" e

let test_embedded_overrides_take_effect () =
  (* A developer override with a recognizable cost must be picked up by the
     runtime's wrapper machinery. *)
  let overrides =
    Override_config.add Override_config.empty
      { Override_config.ov_legacy = "my_func"; ov_symbol = "nk_my_func"; ov_cost = 777; ov_args = 1 }
  in
  let prog = { Toolchain.prog_name = "cfgdemo"; prog_main = (fun _env -> ()) } in
  let hx = Toolchain.hybridize ~overrides prog in
  let rs = Toolchain.run_multiverse hx in
  match rs.Toolchain.rs_runtime with
  | Some rt ->
      let cfg = Runtime.config rt in
      check_bool "developer entry present" true (Override_config.mem cfg ~legacy:"my_func");
      check_bool "defaults also enforced" true
        (Override_config.mem cfg ~legacy:"pthread_create");
      (* The AeroKernel symbol was auto-registered for linkage. *)
      check_bool "symbol resolvable" true
        (Mv_aerokernel.Nautilus.func_address (Runtime.nk rt) "nk_my_func" <> None)
  | None -> Alcotest.fail "no runtime"

(* --- run modes --- *)

(* Every run mode builds its machine from the config it is given: the
   geometry, the partition spec, huge pages and work stealing all arrive. *)
let test_run_modes_build_from_config () =
  let machine =
    {
      Mv_engine.Machine.sockets = 4;
      cores_per_socket = 2;
      partitions = [ 2; 1 ];
      huge_pages = false;
      work_stealing = true;
    }
  in
  let prog = { Toolchain.prog_name = "cfg"; prog_main = (fun _env -> ()) } in
  List.iter
    (fun (mode, rs) ->
      let built = rs.Toolchain.rs_machine in
      let topo = built.Mv_engine.Machine.topo in
      check_bool (mode ^ ": config") true (built.Mv_engine.Machine.config = machine);
      check_int (mode ^ ": sockets") 4 (Mv_hw.Topology.nsockets topo);
      check_int (mode ^ ": cores") 8 (Mv_hw.Topology.ncores topo);
      Alcotest.(check (list int)) (mode ^ ": partition 1") [ 5; 6 ] (Mv_hw.Topology.cores_of topo 1);
      Alcotest.(check (list int)) (mode ^ ": partition 2") [ 7 ] (Mv_hw.Topology.cores_of topo 2))
    [
      ("native", Toolchain.run_native ~machine prog);
      ("virtual", Toolchain.run_virtual ~machine prog);
      ("multiverse", Toolchain.run_multiverse ~machine (Toolchain.hybridize prog));
      ("accelerator", Toolchain.run_accelerator ~machine ~name:"cfg" (fun ~ros_env:_ ~rt:_ -> ()));
    ]

(* --- hybridize's AeroKernel image --- *)

(* The image as it was first defined, one [Rng.int rng 256] draw per
   payload byte: the reference [hybridize]'s image must equal byte for
   byte. *)
let reference_image ~kb =
  let b = Buffer.create (kb * 1024) in
  Buffer.add_string b "NAUTILUS-AEROKERNEL v0.9 multiboot2\000";
  let rng = Mv_util.Rng.create ~seed:0x6e6b in
  while Buffer.length b < kb * 1024 do
    Buffer.add_char b (Char.chr (Mv_util.Rng.int rng 256))
  done;
  Buffer.sub b 0 (kb * 1024)

let test_image_bytes () =
  let prog = { Toolchain.prog_name = "image"; prog_main = (fun _env -> ()) } in
  List.iter
    (fun kb ->
      let hx = Toolchain.hybridize ~image_kb:kb prog in
      match Fat_binary.section hx.Toolchain.hx_fat Fat_binary.sec_hrt_image with
      | Some img ->
          check_int (Printf.sprintf "%d KiB: size" kb) (kb * 1024) (String.length img);
          check_bool (Printf.sprintf "%d KiB: bytes" kb) true (img = reference_image ~kb)
      | None -> Alcotest.fail "no image section")
    [ 0; 1; 64; 640 ]

(* --- run modes --- *)

(* A finished run's statistics pin none of its guest runtime: with the
   run_stats held, a full major collection frees the engine's collector
   and VM in every mode.  The process's SIGSEGV handler (the write
   barrier) and, under full porting, the HRT-local copy of it used to
   keep both alive. *)
let test_finished_run_pins_no_runtime () =
  let full = { Toolchain.default_mv_options with mv_porting = Runtime.full_porting } in
  List.iter
    (fun (mode, run) ->
      let gc = Weak.create 1 and vm = Weak.create 1 in
      let prog =
        {
          Toolchain.prog_name = "pin";
          prog_main =
            (fun env ->
              let e = Mv_racket.Engine.start env in
              Weak.set gc 0 (Some (Mv_racket.Engine.gc e));
              Weak.set vm 0 (Some (Mv_racket.Engine.vm e));
              Mv_racket.Engine.run_program e "(display 42)");
        }
      in
      let rs = run prog in
      Gc.full_major ();
      check_bool (mode ^ ": collector freed") false (Weak.check gc 0);
      check_bool (mode ^ ": VM freed") false (Weak.check vm 0);
      check_string (mode ^ ": the stats stay readable") "42" rs.Toolchain.rs_stdout)
    [
      ("native", fun p -> Toolchain.run_native p);
      ("virtual", fun p -> Toolchain.run_virtual p);
      ("multiverse", fun p -> Toolchain.run_multiverse (Toolchain.hybridize p));
      ("full porting", fun p -> Toolchain.run_multiverse ~options:full (Toolchain.hybridize p));
    ]

let suite =
  [
    ("fat binary: roundtrip", `Quick, test_fat_roundtrip);
    ("fat binary: rejects garbage/truncation", `Quick, test_fat_rejects_garbage);
    ("fat binary: duplicate sections rejected", `Quick, test_fat_duplicate_rejected);
    QCheck_alcotest.to_alcotest qcheck_fat_roundtrip;
    ("override config: parse", `Quick, test_config_parse);
    ("override config: print/parse roundtrip", `Quick, test_config_roundtrip);
    ("override config: errors with line numbers", `Quick, test_config_errors);
    ("symbols: lookup costs, cache effect", `Quick, test_symbol_costs);
    ("symbols: unknown symbol", `Quick, test_symbol_not_found);
    ("hybridize: embeds image + overrides", `Quick, test_hybridize_embeds_everything);
    ("hybridize: embedded overrides take effect", `Quick, test_embedded_overrides_take_effect);
    ("run modes: each builds its machine from the given config", `Quick, test_run_modes_build_from_config);
    ("hybridize: the image matches its byte-at-a-time definition", `Quick, test_image_bytes);
    ("run modes: a finished run pins no guest runtime", `Quick, test_finished_run_pins_no_runtime);
  ]
