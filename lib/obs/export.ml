(* JSON string escaping, covering the characters our span names and
   trace messages can realistically contain. *)
let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let us cycles = Mv_util.Cycles.to_us cycles

let args_json args =
  match args with
  | [] -> ""
  | args ->
      let fields =
        List.map (fun (k, v) -> Printf.sprintf "\"%s\":\"%s\"" (escape k) (escape v)) args
      in
      Printf.sprintf ",\"args\":{%s}" (String.concat "," fields)

type instant = {
  in_name : string;
  in_cat : string;
  in_track : int;
  in_ts : Mv_util.Cycles.t;
  in_detail : string;
}

type ev = { ev_ts : int; ev_ord : int; ev_json : string }

let chrome ?(process_name = "multiverse") ?metrics ~instants tracer =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n\"traceEvents\": [\n";
  let events = ref [] in
  let add ~ts ~ord json = events := { ev_ts = ts; ev_ord = ord; ev_json = json } :: !events in
  (* Track metadata first (ord below any real event at ts 0). *)
  add ~ts:0 ~ord:(-1)
    (Printf.sprintf
       "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"%s\"}}"
       (escape process_name));
  List.iter
    (fun track ->
      add ~ts:0 ~ord:(-1)
        (Printf.sprintf
           "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"args\":{\"name\":\"%s\"}}"
           track
           (escape (Tracer.track_label tracer track))))
    (Tracer.tracks tracer);
  List.iter
    (fun (sp : Tracer.span) ->
      add ~ts:sp.Tracer.sp_ts ~ord:sp.Tracer.sp_id
        (Printf.sprintf
           "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,\"id\":%d%s%s}"
           (escape sp.Tracer.sp_name) (escape sp.Tracer.sp_cat) (us sp.Tracer.sp_ts)
           (us sp.Tracer.sp_dur) sp.Tracer.sp_track sp.Tracer.sp_id
           (if sp.Tracer.sp_parent = 0 then ""
            else Printf.sprintf ",\"parent\":%d" sp.Tracer.sp_parent)
           (args_json sp.Tracer.sp_args)))
    (Tracer.spans tracer);
  List.iteri
    (fun i ins ->
      add ~ts:ins.in_ts ~ord:(1_000_000_000 + i)
        (Printf.sprintf
           "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"i\",\"ts\":%.3f,\"pid\":1,\"tid\":%d,\"s\":\"t\"%s}"
           (escape ins.in_name) (escape ins.in_cat) (us ins.in_ts) ins.in_track
           (args_json (if ins.in_detail = "" then [] else [ ("detail", ins.in_detail) ]))))
    instants;
  let sorted =
    List.sort
      (fun a b -> if a.ev_ts <> b.ev_ts then compare a.ev_ts b.ev_ts else compare a.ev_ord b.ev_ord)
      (List.rev !events)
  in
  List.iteri
    (fun i ev ->
      Buffer.add_string buf ev.ev_json;
      if i < List.length sorted - 1 then Buffer.add_string buf ",";
      Buffer.add_char buf '\n')
    sorted;
  Buffer.add_string buf "],\n";
  Buffer.add_string buf
    (Printf.sprintf "\"displayTimeUnit\": \"ns\",\n\"otherData\": {\"clock\": \"virtual-cycles\", \"spans\": %d, \"dropped\": %d"
       (Tracer.span_count tracer) (Tracer.dropped tracer));
  (match metrics with
  | None -> ()
  | Some m ->
      Buffer.add_string buf ", \"metrics\": {";
      let entries =
        List.map
          (fun (k, v) ->
            match v with
            | Metrics.Counter_v n -> Printf.sprintf "\"%s\": %d" (escape k) n
            | Metrics.Gauge_v g -> Printf.sprintf "\"%s\": %.4f" (escape k) g
            | Metrics.Latency_v s ->
                Printf.sprintf "\"%s\": {\"count\": %d, \"mean\": %.1f, \"max\": %.1f}"
                  (escape k) s.Mv_util.Stats.s_count s.Mv_util.Stats.s_mean
                  (if s.Mv_util.Stats.s_count = 0 then 0.0 else s.Mv_util.Stats.s_max))
          (Metrics.to_list m)
      in
      Buffer.add_string buf (String.concat ", " entries);
      Buffer.add_string buf "}");
  Buffer.add_string buf "}\n}\n";
  Buffer.contents buf

let folded tracer =
  let spans = Tracer.spans tracer in
  let by_id = Hashtbl.create 256 in
  List.iter (fun (sp : Tracer.span) -> Hashtbl.replace by_id sp.Tracer.sp_id sp) spans;
  (* Children duration per parent, for self-time subtraction. *)
  let child_dur = Hashtbl.create 256 in
  List.iter
    (fun (sp : Tracer.span) ->
      if sp.Tracer.sp_parent <> 0 then
        let prev = Option.value (Hashtbl.find_opt child_dur sp.Tracer.sp_parent) ~default:0 in
        Hashtbl.replace child_dur sp.Tracer.sp_parent (prev + sp.Tracer.sp_dur))
    spans;
  let rec path (sp : Tracer.span) acc =
    let acc = sp.Tracer.sp_name :: acc in
    match Hashtbl.find_opt by_id sp.Tracer.sp_parent with
    | Some parent -> path parent acc
    | None -> Tracer.track_label tracer sp.Tracer.sp_track :: acc
  in
  let weights = Hashtbl.create 256 in
  List.iter
    (fun (sp : Tracer.span) ->
      let self =
        sp.Tracer.sp_dur
        - Option.value (Hashtbl.find_opt child_dur sp.Tracer.sp_id) ~default:0
      in
      if self > 0 then begin
        let line = String.concat ";" (path sp []) in
        let prev = Option.value (Hashtbl.find_opt weights line) ~default:0 in
        Hashtbl.replace weights line (prev + self)
      end)
    spans;
  let lines = Hashtbl.fold (fun k v acc -> Printf.sprintf "%s %d" k v :: acc) weights [] in
  String.concat "\n" (List.sort compare lines) ^ if lines = [] then "" else "\n"
