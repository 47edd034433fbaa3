module Machine = Mv_engine.Machine
module Rng = Mv_util.Rng

type site =
  | Chan_drop
  | Chan_delay
  | Chan_duplicate
  | Chan_corrupt
  | Partner_kill
  | Boot_stall
  | Syscall_eagain
  | Syscall_enosys

let all_sites =
  [
    Chan_drop;
    Chan_delay;
    Chan_duplicate;
    Chan_corrupt;
    Partner_kill;
    Boot_stall;
    Syscall_eagain;
    Syscall_enosys;
  ]

let nsites = List.length all_sites

let site_index = function
  | Chan_drop -> 0
  | Chan_delay -> 1
  | Chan_duplicate -> 2
  | Chan_corrupt -> 3
  | Partner_kill -> 4
  | Boot_stall -> 5
  | Syscall_eagain -> 6
  | Syscall_enosys -> 7

let site_name = function
  | Chan_drop -> "chan-drop"
  | Chan_delay -> "chan-delay"
  | Chan_duplicate -> "chan-dup"
  | Chan_corrupt -> "chan-corrupt"
  | Partner_kill -> "partner-kill"
  | Boot_stall -> "boot-stall"
  | Syscall_eagain -> "syscall-eagain"
  | Syscall_enosys -> "syscall-enosys"

let site_of_name name = List.find_opt (fun s -> site_name s = name) all_sites

let sites_of_string spec =
  match String.lowercase_ascii (String.trim spec) with
  | "" | "all" -> Ok all_sites
  | spec -> (
      let rec parse acc = function
        | [] -> Ok (List.rev acc)
        | name :: rest -> (
            let name = String.trim name in
            match site_of_name name with
            | Some site -> parse (site :: acc) rest
            | None ->
                Error
                  (Printf.sprintf "unknown fault site %S (known: %s)" name
                     (String.concat ", " (List.map site_name all_sites))))
      in
      parse [] (String.split_on_char ',' spec))

let sites_to_string = function
  | sites when sites = all_sites -> "all"
  | sites -> String.concat "," (List.map site_name sites)

type t = {
  p_enabled : bool;
  p_seed : int;
  p_rate : float;
  p_mask : bool array;
  p_streams : Rng.t array;  (* one independent stream per site *)
  p_counts : int array;
  mutable p_total : int;
  mutable p_machine : Machine.t option;
}

let none =
  {
    p_enabled = false;
    p_seed = 0;
    p_rate = 0.;
    p_mask = Array.make nsites false;
    p_streams = [||];
    p_counts = Array.make nsites 0;
    p_total = 0;
    p_machine = None;
  }

let create ~seed ?(rate = 0.05) ?(sites = all_sites) () =
  if not (rate >= 0. && rate <= 1.) then invalid_arg "Fault_plan.create: rate not in [0,1]";
  let root = Rng.create ~seed in
  (* Streams are split off in fixed site order so the [sites] filter never
     shifts another site's randomness. *)
  let streams = Array.init nsites (fun _ -> Rng.split root) in
  let mask = Array.make nsites false in
  List.iter (fun s -> mask.(site_index s) <- true) sites;
  {
    p_enabled = true;
    p_seed = seed;
    p_rate = rate;
    p_mask = mask;
    p_streams = streams;
    p_counts = Array.make nsites 0;
    p_total = 0;
    p_machine = None;
  }

let enabled t = t.p_enabled
let bind t machine = if t.p_enabled then t.p_machine <- Some machine
let seed t = t.p_seed
let rate t = t.p_rate
let injected t = t.p_total
let injected_at t site = t.p_counts.(site_index site)

let fire t site ctx =
  t.p_enabled
  && t.p_mask.(site_index site)
  &&
  let i = site_index site in
  let hit = Rng.float t.p_streams.(i) 1.0 < t.p_rate in
  if hit then begin
    t.p_counts.(i) <- t.p_counts.(i) + 1;
    t.p_total <- t.p_total + 1;
    match t.p_machine with
    | Some m ->
        Machine.emit m (Mv_engine.Trace.Fault_injected { site = site_name site; ctx })
    | None -> ()
  end;
  hit

let extra_delay t site ~base =
  let base = max 1 base in
  base + Rng.int t.p_streams.(site_index site) (3 * base)

let syscall_errno t name =
  if fire t Syscall_eagain name then Some "EAGAIN"
  else if fire t Syscall_enosys name then Some "ENOSYS"
  else None

let pp_summary ppf t =
  if not t.p_enabled then Format.fprintf ppf "faults disabled"
  else begin
    Format.fprintf ppf "seed=%d rate=%.3f injected=%d" t.p_seed t.p_rate t.p_total;
    List.iter
      (fun s ->
        let n = injected_at t s in
        if n > 0 then Format.fprintf ppf " %s=%d" (site_name s) n)
      all_sites
  end
