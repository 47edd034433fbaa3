module Machine = Mv_engine.Machine
module Sim = Mv_engine.Sim
module Nautilus = Mv_aerokernel.Nautilus
module Hvm = Mv_hvm.Hvm
open Mv_ros

type program = { prog_name : string; prog_main : Mv_guest.Env.t -> unit }

type hybrid_exe = { hx_program : program; hx_fat : Fat_binary.t }

(* A deterministic stand-in for the compiled AeroKernel image: header plus
   pseudo-random payload of the requested size. *)
let make_image ~kb =
  let b = Buffer.create (kb * 1024) in
  Buffer.add_string b "NAUTILUS-AEROKERNEL v0.9 multiboot2\000";
  let rng = Mv_util.Rng.create ~seed:0x6e6b in
  while Buffer.length b < kb * 1024 do
    Buffer.add_char b (Char.chr (Mv_util.Rng.int rng 256))
  done;
  Buffer.sub b 0 (kb * 1024)

(* Each image size is built once, on first use, and shared: the bytes
   never change and building them is most of a [hybridize].  Machines on
   several domains hybridize at once, hence the lock. *)
let images : (int, string) Hashtbl.t = Hashtbl.create 4
let images_lock = Mutex.create ()

let image ~kb =
  Mutex.protect images_lock (fun () ->
      match Hashtbl.find_opt images kb with
      | Some img -> img
      | None ->
          let img = make_image ~kb in
          Hashtbl.replace images kb img;
          img)

let hybridize ?(overrides = Override_config.empty) ?(image_kb = 640) program =
  let fat =
    Fat_binary.empty
    |> Fat_binary.add_section ~name:Fat_binary.sec_text
         ~data:("LEGACY-PROGRAM " ^ program.prog_name)
    |> Fat_binary.add_section ~name:Fat_binary.sec_hrt_image ~data:(image ~kb:image_kb)
    |> Fat_binary.add_section ~name:Fat_binary.sec_overrides
         ~data:(Override_config.to_text overrides)
    |> Fat_binary.add_section ~name:Fat_binary.sec_init
         ~data:"ros_signals,exit_hook,linkage,install,boot,merge"
  in
  { hx_program = program; hx_fat = fat }

type mv_options = {
  mv_channel : Mv_hvm.Event_channel.kind;
  mv_symbol_cache : bool;
  mv_porting : Runtime.porting;
  mv_faults : Mv_faults.Fault_plan.t;
  mv_huge_pages : bool;
  mv_sockets : int;
  mv_cores_per_socket : int;
  mv_partitions : int list;
  mv_placement : Mv_hvm.Fabric.placement;
  mv_work_stealing : bool;
}

let default_mv_options =
  {
    mv_channel = Mv_hvm.Event_channel.Async;
    mv_symbol_cache = false;
    mv_porting = Runtime.no_porting;
    mv_faults = Mv_faults.Fault_plan.none;
    mv_huge_pages = true;
    mv_sockets = 2;
    mv_cores_per_socket = 4;
    mv_partitions = [ 1 ];
    mv_placement = Mv_hvm.Fabric.Spread;
    mv_work_stealing = false;
  }

type run_stats = {
  rs_mode : string;
  rs_stdout : string;
  rs_exit_code : int;
  rs_wall_cycles : int;
  rs_rusage : Rusage.t;
  rs_syscalls : Mv_util.Histogram.t;
  rs_kernel : Kernel.t;
  rs_machine : Machine.t;
  rs_runtime : Runtime.t option;
}

let total_syscalls rs = Mv_util.Histogram.total rs.rs_syscalls
let wall_seconds rs = Mv_util.Cycles.to_sec rs.rs_wall_cycles

let collect ~mode ~kernel ~machine ~proc ~runtime =
  {
    rs_mode = mode;
    rs_stdout = Process.stdout_contents proc;
    rs_exit_code = proc.Process.exit_code;
    rs_wall_cycles = Kernel.runtime_of kernel proc;
    rs_rusage = proc.Process.rusage;
    rs_syscalls = proc.Process.syscall_counts;
    rs_kernel = kernel;
    rs_machine = machine;
    rs_runtime = runtime;
  }

let prepare_stdin proc stdin =
  match stdin with
  | Some data ->
      Vfs.feed proc.Process.stdin data;
      Vfs.close_stream proc.Process.stdin
  | None -> Vfs.close_stream proc.Process.stdin

let run_plain ~virtualized ?costs ?stdin ?(trace = false) ?(huge_pages = true)
    ?(topology = (2, 4)) ?hrt_parts program =
  let sockets, cores_per_socket = topology in
  let machine = Machine.create ?costs ~huge_pages ~sockets ~cores_per_socket ?hrt_parts () in
  if trace then Machine.set_tracing machine true;
  let kernel = Kernel.create ~virtualized machine in
  let proc =
    Kernel.spawn_process kernel ~name:program.prog_name (fun p ->
        let env = Mv_guest.Env.native kernel p in
        program.prog_main env)
  in
  prepare_stdin proc stdin;
  let mode = if virtualized then "virtual" else "native" in
  Mv_obs.Tracer.with_span machine.Machine.obs ~name:("run:" ^ mode) ~cat:"sim"
    (fun () -> Sim.run machine.Machine.sim);
  if not proc.Process.exited then
    failwith (program.prog_name ^ ": simulation quiesced before process exit");
  collect ~mode ~kernel ~machine ~proc ~runtime:None

let run_native ?costs ?stdin ?trace ?huge_pages ?topology ?hrt_parts program =
  run_plain ~virtualized:false ?costs ?stdin ?trace ?huge_pages ?topology ?hrt_parts program

let run_virtual ?costs ?stdin ?trace ?huge_pages ?topology ?hrt_parts program =
  run_plain ~virtualized:true ?costs ?stdin ?trace ?huge_pages ?topology ?hrt_parts program

let setup_multiverse ?costs ~options ~name ~fat body =
  let machine =
    Machine.create ?costs ~huge_pages:options.mv_huge_pages ~sockets:options.mv_sockets
      ~cores_per_socket:options.mv_cores_per_socket ~hrt_parts:options.mv_partitions
      ~work_stealing:options.mv_work_stealing ()
  in
  let kernel = Kernel.create machine in
  let hvm = Hvm.create machine ~ros:kernel in
  let nk = Nautilus.create machine in
  let proc =
    Kernel.spawn_process kernel ~name (fun p ->
        let rt =
          Runtime.init ~hvm ~proc:p ~fat ~nk ~channel_kind:options.mv_channel
            ~use_symbol_cache:options.mv_symbol_cache ~porting:options.mv_porting
            ~faults:options.mv_faults ~placement:options.mv_placement ()
        in
        body kernel p rt)
  in
  (machine, kernel, proc)

let run_multiverse ?costs ?stdin ?(trace = false) ?(options = default_mv_options) hx =
  let rt_box = ref None in
  let machine, kernel, proc =
    setup_multiverse ?costs ~options ~name:hx.hx_program.prog_name ~fat:hx.hx_fat
      (fun _kernel _p rt ->
        rt_box := Some rt;
        (* Incremental model: main() itself becomes a top-level HRT thread;
           the ROS main joins its partner. *)
        let partner =
          Runtime.hrt_invoke rt ~name:"main" (fun env -> hx.hx_program.prog_main env)
        in
        Runtime.join rt partner)
  in
  if trace then Machine.set_tracing machine true;
  prepare_stdin proc stdin;
  Mv_obs.Tracer.with_span machine.Machine.obs ~name:"run:multiverse" ~cat:"sim"
    (fun () -> Sim.run machine.Machine.sim);
  if not proc.Process.exited then
    failwith (hx.hx_program.prog_name ^ ": simulation quiesced before process exit");
  collect ~mode:"multiverse" ~kernel ~machine ~proc ~runtime:!rt_box

let run_accelerator ?costs ?stdin ?(options = default_mv_options) ~name body =
  let rt_box = ref None in
  let fat =
    (hybridize { prog_name = name; prog_main = (fun _ -> ()) }).hx_fat
  in
  let machine, kernel, proc =
    setup_multiverse ?costs ~options ~name ~fat (fun kernel p rt ->
        rt_box := Some rt;
        let ros_env = Mv_guest.Env.native kernel p in
        body ~ros_env ~rt)
  in
  prepare_stdin proc stdin;
  Mv_obs.Tracer.with_span machine.Machine.obs ~name:"run:accelerator" ~cat:"sim"
    (fun () -> Sim.run machine.Machine.sim);
  if not proc.Process.exited then failwith (name ^ ": simulation quiesced before exit");
  collect ~mode:"accelerator" ~kernel ~machine ~proc ~runtime:!rt_box
