(* The NESL VCODE interpreter — the authors' second hand-ported runtime
   (paper, Section 2) — running data-parallel vector programs.

   Demonstrates: VCODE assembly (scans, packs, reductions, recursion), and
   the same interpreter fanning its vector operations out over a worker
   pool on Linux vs. on AeroKernel threads.

   Run with:  dune exec examples/nesl_vcode.exe *)

module Machine = Mv_engine.Machine
module Sim = Mv_engine.Sim
module Exec = Mv_engine.Exec
open Mv_vcode

let show name out =
  Printf.printf "%-22s => %s\n" name
    (String.concat " " (List.map (Format.asprintf "%a" Vcode.pp_value) out))

let () =
  print_endline "--- VCODE programs (sequential, dry cost model) ---";
  let dry = Vcode.create ~charge:(fun _ -> ()) () in
  let run src stack = Vcode.run dry (Vcode.parse src) stack in
  show "sum of squares 0..9" (run (Samples.sum_of_squares 10) []);
  show "factorial 12" (run (Samples.factorial 12) []);
  show "line of sight"
    (run Samples.line_of_sight [ Vcode.int_vec [| 3; 1; 4; 1; 5; 9; 2; 6 |] ]);
  show "dot product"
    (run Samples.dot_product
       [ Vcode.float_vec [| 1.; 2.; 3. |]; Vcode.float_vec [| 4.; 5.; 6. |] ]);
  show "segmented matvec"
    (run Samples.matvec_segmented
       [ Vcode.int_vec [| 2; 3; 1 |]; Vcode.float_vec [| 1.; 2.; 3.; 4.; 5.; 6. |] ]);

  print_endline "\n--- the same vector program on 4-worker pools ---";
  let n = 20_000 in
  (* Linux backend *)
  let machine = Machine.create () in
  let kernel = Mv_ros.Kernel.create machine in
  let t_linux = ref 0 in
  ignore
    (Mv_ros.Kernel.spawn_process kernel ~name:"vcode" (fun p ->
         let env = Mv_guest.Env.native kernel p in
         let pool = Mv_parallel.Pool.create (Mv_parallel.Pool.Linux env) ~nworkers:4 in
         let interp = Vcode.create ~pool ~charge:(fun c -> env.Mv_guest.Env.work c) () in
         let t0 = Exec.local_now machine.Machine.exec in
         ignore (Vcode.run interp (Vcode.parse (Samples.sum_of_squares n)) []);
         t_linux := Exec.local_now machine.Machine.exec - t0;
         Mv_parallel.Pool.shutdown pool));
  Sim.run machine.Machine.sim;
  (* AeroKernel backend *)
  let machine2 = Machine.create ~hrt_parts:[ 5 ] () in
  let nk = Mv_aerokernel.Nautilus.create machine2 in
  let t_hrt = ref 0 in
  let master = List.hd (Mv_aerokernel.Nautilus.cores nk) in
  ignore
    (Exec.spawn machine2.Machine.exec ~cpu:master ~name:"vcode-hrt" (fun () ->
         Mv_aerokernel.Nautilus.boot nk;
         let pool = Mv_parallel.Pool.create (Mv_parallel.Pool.Aerokernel nk) ~nworkers:4 in
         let interp = Vcode.create ~pool ~charge:(fun c -> Machine.charge machine2 c) () in
         let t0 = Exec.local_now machine2.Machine.exec in
         ignore (Vcode.run interp (Vcode.parse (Samples.sum_of_squares n)) []);
         t_hrt := Exec.local_now machine2.Machine.exec - t0;
         Mv_parallel.Pool.shutdown pool));
  Sim.run machine2.Machine.sim;
  Printf.printf "vector length %d: Linux pool %.1f us, AeroKernel pool %.1f us (%.2fx)\n" n
    (Mv_util.Cycles.to_us !t_linux) (Mv_util.Cycles.to_us !t_hrt)
    (float_of_int !t_linux /. float_of_int !t_hrt)
