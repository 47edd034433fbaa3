(* The Native usage model: a parallel runtime living entirely in the HRT.

   The paper's motivation (Section 2) is that hand-porting parallel
   runtimes (Legion, NESL) to the Nautilus AeroKernel sped up HPCG by up
   to 20 % (Xeon Phi) / 40 % (x64), because kernel-mode thread primitives
   cost orders of magnitude less than Linux's.  Multiverse's endgame — the
   Native model — is a runtime that uses only AeroKernel services.

   This example runs the same HPCG conjugate-gradient solve on a 4-worker
   fork-join pool twice: Linux pthreads parked on futexes, and AeroKernel
   threads on the HRT cores.  Same numerics, same convergence; only the
   runtime-system substrate differs.

   Run with:  dune exec examples/hpcg_native.exe [nx]   (default 12) *)

module Machine = Mv_engine.Machine
module Sim = Mv_engine.Sim
module Exec = Mv_engine.Exec
open Mv_parallel

let () =
  let nx = if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 12 in
  let workers = 4 in

  (* Linux: a user-level runtime in a ROS process. *)
  let linux = ref None in
  let machine = Machine.create () in
  let kernel = Mv_ros.Kernel.create machine in
  ignore
    (Mv_ros.Kernel.spawn_process kernel ~name:"hpcg" (fun p ->
         let env = Mv_guest.Env.native kernel p in
         let pool = Pool.create (Pool.Linux env) ~nworkers:workers in
         let t0 = Exec.local_now machine.Machine.exec in
         let r = Hpcg.run pool ~nx () in
         let t = Exec.local_now machine.Machine.exec - t0 in
         Pool.shutdown pool;
         linux := Some (r, t, Mv_util.Histogram.count p.Mv_ros.Process.syscall_counts "futex")));
  Sim.run machine.Machine.sim;
  let rl, tl, futexes = Option.get !linux in

  (* Native model: the same runtime as pure AeroKernel threads. *)
  let hrt = ref None in
  let machine2 =
    Machine.create ~config:{ Machine.default_config with partitions = [ workers + 1 ] } ()
  in
  let nk = Mv_aerokernel.Nautilus.create machine2 in
  let master = List.hd (Mv_aerokernel.Nautilus.cores nk) in
  ignore
    (Exec.spawn machine2.Machine.exec ~cpu:master ~name:"hpcg-hrt" (fun () ->
         Mv_aerokernel.Nautilus.boot nk;
         let pool = Pool.create (Pool.Aerokernel nk) ~nworkers:workers in
         let t0 = Exec.local_now machine2.Machine.exec in
         let r = Hpcg.run pool ~nx () in
         let t = Exec.local_now machine2.Machine.exec - t0 in
         Pool.shutdown pool;
         hrt := Some (r, t)));
  Sim.run machine2.Machine.sim;
  let rn, tn = Option.get !hrt in

  Printf.printf "HPCG %d^3, %d workers, %d parallel regions\n\n" nx workers rl.Hpcg.regions;
  Printf.printf "Linux pthreads : %8.3f ms  (%d CG iters, residual %.2e, %d futex calls)\n"
    (Mv_util.Cycles.to_ms tl) rl.Hpcg.iterations rl.Hpcg.final_residual futexes;
  Printf.printf "HRT native     : %8.3f ms  (%d CG iters, residual %.2e, zero syscalls)\n"
    (Mv_util.Cycles.to_ms tn) rn.Hpcg.iterations rn.Hpcg.final_residual;
  Printf.printf "\nAeroKernel speedup: %.2fx (converged: %b/%b)\n"
    (float_of_int tl /. float_of_int tn)
    (Hpcg.verify rl) (Hpcg.verify rn);
  print_endline
    "Shrink nx to make regions finer (bigger win); grow it to amortize\n\
     synchronization (smaller win) — the trade the paper's Section 2 describes."
