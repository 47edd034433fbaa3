module Exec = Mv_engine.Exec
module Fault_plan = Mv_faults.Fault_plan

type outcome = Pass | Fail of string

type fault_spec = {
  fs_rate : float;
  fs_sites : Fault_plan.site list;
}

type t = {
  sc_name : string;
  sc_descr : string;
  sc_fault_specs : fault_spec list;
  sc_expect_bug : bool;
  sc_run : strategy:Strategy.t -> faults:Fault_plan.t -> outcome;
}

(* A healthy scenario run is well under 10^5 events; only a genuine
   livelock (e.g. a watchdog rescheduling forever over a wedged group)
   ever reaches the budget, and hitting it is itself a verdict. *)
let default_max_events = 400_000

(* The machine every scenario builds, installed by the mvcheck CLI from
   its --topology and --partitions flags before any sweep starts (so
   worker domains observe it without synchronization).  Scenarios derive
   cores from the resulting topology rather than hardcoding ids, so the
   whole sweep runs on the requested machine. *)
let machine_override = ref Mv_engine.Machine.default_config
let set_machine config = machine_override := config
let machine () = !machine_override

let make_machine ?partitions ?(work_stealing = false) () =
  let config = !machine_override in
  let partitions = Option.value partitions ~default:config.partitions in
  Mv_engine.Machine.create ~config:{ config with partitions; work_stealing } ()

let failf fmt = Format.kasprintf (fun s -> Fail s) fmt

let check_quiesced ?(allow_blocked = fun _ -> false) exec ~quiesced =
  if not quiesced then
    Fail "event budget exhausted: simulation did not quiesce (livelock?)"
  else
    let stuck =
      List.filter_map
        (fun th ->
          match Exec.state exec th with
          | Exec.Finished -> None
          | Exec.Blocked reason when allow_blocked (Exec.name th) -> ignore reason; None
          | Exec.Blocked reason ->
              Some (Printf.sprintf "%s (blocked: %s)" (Exec.name th) reason)
          | Exec.Ready | Exec.Running ->
              (* Quiesced with a runnable thread cannot happen; report it
                 loudly if it ever does. *)
              Some (Printf.sprintf "%s (runnable at quiescence!)" (Exec.name th)))
        (Exec.threads exec)
    in
    match stuck with
    | [] -> Pass
    | l -> failf "threads blocked forever: %s" (String.concat ", " l)

let rec all = function
  | [] -> Pass
  | check :: rest -> ( match check () with Pass -> all rest | Fail _ as f -> f)
