type role = Ros_core | Hrt_core

type core = {
  core_id : int;
  socket : int;
  mutable role : role;
  mutable part : Partition.id;  (* current owner; changes under lending *)
  home : Partition.id;  (* partition the core was carved into at creation *)
}

type t = {
  sockets : int;
  cores_per_socket : int;
  cores : core array;
  parts : Partition.t array;  (* index = partition id; slot 0 is the ROS *)
}

let spec_string spec =
  "[" ^ String.concat "," (List.map string_of_int spec) ^ "]"

let check_spec ~sockets ~cores_per_socket spec =
  match List.find_index (fun size -> size <= 0) spec with
  | Some i ->
      Error
        (Printf.sprintf "partition %d of spec %s must have at least one core" (i + 1)
           (spec_string spec))
  | None when List.fold_left ( + ) 0 spec >= sockets * cores_per_socket ->
      Error
        (Printf.sprintf "partition spec %s leaves no ROS core on the %dx%d machine"
           (spec_string spec) sockets cores_per_socket)
  | None -> Ok ()

let create ?(sockets = 2) ?(cores_per_socket = 4) ?hrt_parts:(spec = [ 1 ]) () =
  (match check_spec ~sockets ~cores_per_socket spec with
  | Error msg -> invalid_arg ("Topology.create: " ^ msg)
  | Ok () -> ());
  let n = sockets * cores_per_socket in
  let total = List.fold_left ( + ) 0 spec in
  (* HRT partitions are carved from the top of the core range, in spec
     order: partition 1 gets the lowest of the reserved cores, the last
     partition the highest. *)
  let base = n - total in
  let bounds =
    (* partition id -> (first core, size); id 0 is the ROS remainder *)
    let acc = ref base in
    Array.of_list
      ((0, base)
      :: List.map
           (fun size ->
             let first = !acc in
             acc := !acc + size;
             (first, size))
           spec)
  in
  let part_of_core i =
    if i < base then 0
    else begin
      let pid = ref 0 in
      Array.iteri
        (fun p (first, size) -> if p > 0 && i >= first && i < first + size then pid := p)
        bounds;
      !pid
    end
  in
  let cores =
    Array.init n (fun i ->
        let part = part_of_core i in
        let role = if part = 0 then Ros_core else Hrt_core in
        { core_id = i; socket = i / cores_per_socket; role; part; home = part })
  in
  let parts =
    Array.mapi
      (fun pid (first, size) ->
        let kind = if pid = 0 then Partition.Ros else Partition.Hrt in
        let cs =
          if pid = 0 then
            (* The ROS keeps every core outside the reserved range (core 0,
               where the control process runs, is always among them). *)
            Array.to_list cores
            |> List.filter (fun c -> c.part = 0)
            |> List.map (fun c -> c.core_id)
          else List.init size (fun k -> first + k)
        in
        Partition.make ~id:pid ~kind cs)
      bounds
  in
  { sockets; cores_per_socket; cores; parts }

let ncores t = Array.length t.cores
let nsockets t = t.sockets
let cores_per_socket t = t.cores_per_socket
let core t i = t.cores.(i)
let same_socket t a b = t.cores.(a).socket = t.cores.(b).socket

(* NUMA distance in hops.  Sockets sit on a line interconnect (HyperTransport
   daisy chain on the reference Opteron), so the distance between two cores
   is the number of socket hops between them: 0 on the same socket, 1 for
   adjacent sockets.  At the default 2-socket geometry this reduces to the
   old [same_socket] boolean. *)
let socket_distance _t a b = abs (a - b)
let distance t a b = socket_distance t t.cores.(a).socket t.cores.(b).socket

let socket_of t i = t.cores.(i).socket

let nparts t = Array.length t.parts

let partition t pid =
  if pid < 0 || pid >= Array.length t.parts then
    invalid_arg (Printf.sprintf "Topology.partition: no partition %d" pid);
  t.parts.(pid)

let partitions t = Array.to_list t.parts
let hrt_partitions t = List.filter Partition.is_hrt (partitions t)
let cores_of t pid = Partition.cores (partition t pid)
let partition_of t i = t.cores.(i).part
let home_of t i = t.cores.(i).home

let ros_cores t = cores_of t Partition.ros_id
let role t i = t.cores.(i).role

let nearest_ros_core t ~rotate core =
  let scored =
    List.sort compare (List.map (fun c -> (distance t c core, c)) (ros_cores t))
  in
  let d0 = fst (List.hd scored) in
  let nearest = List.filter (fun (d, _) -> d = d0) scored in
  snd (List.nth nearest (rotate mod List.length nearest))

let reassign t ~core pid =
  let dst = partition t pid in
  let c = t.cores.(core) in
  if c.part <> pid then begin
    Partition.remove_core t.parts.(c.part) core;
    Partition.add_core dst core;
    c.part <- pid;
    c.role <- (if Partition.is_hrt dst then Hrt_core else Ros_core)
  end

let pp ppf t =
  Format.fprintf ppf "%d sockets x %d cores; %a" t.sockets t.cores_per_socket
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ")
       Partition.pp)
    (partitions t)
