(* Tests for the parallel runtime substrate (worker pools over Linux
   futexes vs AeroKernel threads) and the HPCG solver. *)

module Machine = Mv_engine.Machine
module Sim = Mv_engine.Sim
module Exec = Mv_engine.Exec
open Mv_parallel

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let in_linux_proc f =
  let machine = Machine.create () in
  let k = Mv_ros.Kernel.create machine in
  let out = ref None in
  let p =
    Mv_ros.Kernel.spawn_process k ~name:"pool" (fun p ->
        let env = Mv_guest.Env.native k p in
        out := Some (f machine env))
  in
  Sim.run machine.Machine.sim;
  ignore p;
  match !out with Some r -> r | None -> Alcotest.fail "body did not run"

let in_hrt f =
  let machine = Machine.create ~config:{ Machine.default_config with partitions = [ 5 ] } () in
  let nk = Mv_aerokernel.Nautilus.create machine in
  let out = ref None in
  let master = List.hd (Mv_aerokernel.Nautilus.cores nk) in
  ignore
    (Exec.spawn machine.Machine.exec ~cpu:master ~name:"master" (fun () ->
         Mv_aerokernel.Nautilus.boot nk;
         out := Some (f machine nk)));
  Sim.run machine.Machine.sim;
  match !out with Some r -> r | None -> Alcotest.fail "body did not run"

let test_pool_covers_range () =
  in_linux_proc (fun _machine env ->
      let pool = Pool.create (Pool.Linux env) ~nworkers:4 in
      let hits = Array.make 1000 0 in
      Pool.parallel_for pool ~lo:0 ~hi:1000 (fun i -> hits.(i) <- hits.(i) + 1);
      Pool.shutdown pool;
      check_bool "every index exactly once" true (Array.for_all (( = ) 1) hits))

let test_pool_uneven_ranges () =
  in_linux_proc (fun _machine env ->
      let pool = Pool.create (Pool.Linux env) ~nworkers:3 in
      (* Ranges that do not divide evenly, including tiny and empty. *)
      List.iter
        (fun (lo, hi) ->
          let count = ref 0 in
          Pool.parallel_for pool ~lo ~hi (fun _ -> incr count);
          check_int (Printf.sprintf "range [%d,%d)" lo hi) (max 0 (hi - lo)) !count)
        [ (0, 7); (5, 6); (3, 3); (0, 100) ];
      Pool.shutdown pool)

let test_pool_reduce () =
  in_linux_proc (fun _machine env ->
      let pool = Pool.create (Pool.Linux env) ~nworkers:4 in
      let sum = Pool.parallel_reduce pool ~lo:1 ~hi:101 float_of_int in
      Pool.shutdown pool;
      Alcotest.(check (float 1e-9)) "sum 1..100" 5050.0 sum)

let test_pool_many_regions () =
  in_linux_proc (fun _machine env ->
      let pool = Pool.create (Pool.Linux env) ~nworkers:2 in
      let total = ref 0 in
      for _ = 1 to 50 do
        Pool.parallel_for pool ~lo:0 ~hi:10 (fun _ -> incr total)
      done;
      check_int "regions counted" 50 (Pool.regions pool);
      Pool.shutdown pool;
      check_int "all iterations" 500 !total)

let test_pool_futex_traffic () =
  in_linux_proc (fun _machine env ->
      let pool = Pool.create (Pool.Linux env) ~nworkers:4 in
      for _ = 1 to 10 do
        Pool.parallel_for pool ~lo:0 ~hi:8 (fun _ -> ())
      done;
      Pool.shutdown pool;
      (* Persistent Linux workers park on futexes: kernel-visible traffic. *)
      let futexes =
        Mv_util.Histogram.count env.Mv_guest.Env.proc.Mv_ros.Process.syscall_counts "futex"
      in
      check_bool (Printf.sprintf "futex syscalls (%d)" futexes) true (futexes > 40))

let test_pool_aerokernel_backend () =
  in_hrt (fun _machine nk ->
      let pool = Pool.create (Pool.Aerokernel nk) ~nworkers:4 in
      let sum = Pool.parallel_reduce pool ~lo:0 ~hi:1000 float_of_int in
      Pool.shutdown pool;
      Alcotest.(check (float 1e-9)) "reduce on HRT cores" 499500.0 sum)

let test_pool_parallelism_real () =
  (* Wall-clock on 4 workers must be well under 4x one worker's work. *)
  let wall workers =
    in_linux_proc (fun machine env ->
        let pool = Pool.create (Pool.Linux env) ~nworkers:workers in
        let t0 = Exec.local_now machine.Machine.exec in
        Pool.parallel_for pool ~lo:0 ~hi:400 (fun _ -> Pool.charge pool 10_000);
        let t = Exec.local_now machine.Machine.exec - t0 in
        Pool.shutdown pool;
        t)
  in
  let w1 = wall 1 and w4 = wall 4 in
  check_bool
    (Printf.sprintf "speedup %.2f > 2.5" (float_of_int w1 /. float_of_int w4))
    true
    (float_of_int w1 > 2.5 *. float_of_int w4)

let test_hpcg_converges_both_backends () =
  let r_linux =
    in_linux_proc (fun _machine env ->
        let pool = Pool.create (Pool.Linux env) ~nworkers:4 in
        let r = Hpcg.run pool ~nx:8 () in
        Pool.shutdown pool;
        r)
  in
  let r_hrt =
    in_hrt (fun _machine nk ->
        let pool = Pool.create (Pool.Aerokernel nk) ~nworkers:4 in
        let r = Hpcg.run pool ~nx:8 () in
        Pool.shutdown pool;
        r)
  in
  check_bool "linux converged" true (Hpcg.verify r_linux);
  check_bool "hrt converged" true (Hpcg.verify r_hrt);
  check_int "same iteration count (deterministic numerics)" r_linux.Hpcg.iterations
    r_hrt.Hpcg.iterations;
  check_bool "nontrivial iteration count" true (r_linux.Hpcg.iterations >= 8)

let test_hpcg_hrt_faster_fine_grained () =
  (* The paper's prior-work claim: HRT-native parallel runtimes beat Linux
     when region granularity is fine (thread primitives dominate). *)
  let t_linux =
    in_linux_proc (fun machine env ->
        let pool = Pool.create (Pool.Linux env) ~nworkers:4 in
        let t0 = Exec.local_now machine.Machine.exec in
        ignore (Hpcg.run pool ~nx:8 ());
        let t = Exec.local_now machine.Machine.exec - t0 in
        Pool.shutdown pool;
        t)
  in
  let t_hrt =
    in_hrt (fun machine nk ->
        let pool = Pool.create (Pool.Aerokernel nk) ~nworkers:4 in
        let t0 = Exec.local_now machine.Machine.exec in
        ignore (Hpcg.run pool ~nx:8 ());
        let t = Exec.local_now machine.Machine.exec - t0 in
        Pool.shutdown pool;
        t)
  in
  check_bool
    (Printf.sprintf "hrt %.2fx faster" (float_of_int t_linux /. float_of_int t_hrt))
    true (t_hrt < t_linux)

let suite =
  [
    ("pool: covers the range exactly once", `Quick, test_pool_covers_range);
    ("pool: uneven/empty ranges", `Quick, test_pool_uneven_ranges);
    ("pool: parallel reduce", `Quick, test_pool_reduce);
    ("pool: many regions, persistent workers", `Quick, test_pool_many_regions);
    ("pool: Linux backend parks on futexes", `Quick, test_pool_futex_traffic);
    ("pool: AeroKernel backend", `Quick, test_pool_aerokernel_backend);
    ("pool: real parallel speedup", `Quick, test_pool_parallelism_real);
    ("hpcg: converges on both backends", `Quick, test_hpcg_converges_both_backends);
    ("hpcg: HRT-native faster at fine grain", `Quick, test_hpcg_hrt_faster_fine_grained);
  ]
