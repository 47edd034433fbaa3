(* Slot registry.  The string-keyed Hashtbl is consulted only at
   registration: [counter]/[gauge]/[latency] resolve a name to its cell
   once, and every registration of that name hands back the same cell,
   so a hot-path update is a single field store and nothing allocates
   after registration (a one-field float record is stored unboxed). *)

type counter = { mutable count : int }
type gauge = { mutable level : float }
type latency = Mv_util.Stats.t
type slot = C of counter | G of gauge | L of latency
type t = { index : (string, slot) Hashtbl.t }

let create () = { index = Hashtbl.create 64 }
let key ~ns name = ns ^ "/" ^ name
let type_clash fn k = invalid_arg ("Metrics." ^ fn ^ ": " ^ k ^ " registered with another type")

let counter t ~ns name =
  let k = key ~ns name in
  match Hashtbl.find_opt t.index k with
  | Some (C c) -> c
  | Some _ -> type_clash "counter" k
  | None ->
      let c = { count = 0 } in
      Hashtbl.replace t.index k (C c);
      c

let inc c ?(by = 1) () = c.count <- c.count + by
let set_counter c v = c.count <- v
let counter_value c = c.count

let gauge t ~ns name =
  let k = key ~ns name in
  match Hashtbl.find_opt t.index k with
  | Some (G g) -> g
  | Some _ -> type_clash "gauge" k
  | None ->
      let g = { level = 0.0 } in
      Hashtbl.replace t.index k (G g);
      g

let set_gauge g v = g.level <- v
let gauge_value g = g.level

let latency t ~ns name =
  let k = key ~ns name in
  match Hashtbl.find_opt t.index k with
  | Some (L l) -> l
  | Some _ -> type_clash "latency" k
  | None ->
      let l = Mv_util.Stats.create () in
      Hashtbl.replace t.index k (L l);
      l

let observe l v = Mv_util.Stats.add l v
let latency_stats l = Mv_util.Stats.summary l
let latency_count l = Mv_util.Stats.count l
let latency_percentile l p =
  if Mv_util.Stats.count l = 0 then 0. else Mv_util.Stats.percentile_interp l p

type value =
  | Counter_v of int
  | Gauge_v of float
  | Latency_v of Mv_util.Stats.summary

let value_of = function
  | C c -> Counter_v c.count
  | G g -> Gauge_v g.level
  | L l -> Latency_v (latency_stats l)

let to_list t =
  Hashtbl.fold (fun k s acc -> (k, value_of s) :: acc) t.index []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let find t k = Option.map value_of (Hashtbl.find_opt t.index k)

let pp ppf t =
  List.iter
    (fun (k, v) ->
      match v with
      | Counter_v n -> Format.fprintf ppf "%-40s %d@." k n
      | Gauge_v g -> Format.fprintf ppf "%-40s %.3f@." k g
      | Latency_v s -> Format.fprintf ppf "%-40s %a@." k Mv_util.Stats.pp_summary s)
    (to_list t)
