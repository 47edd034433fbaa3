type span = {
  sp_id : int;
  sp_parent : int;
  sp_name : string;
  sp_cat : string;
  sp_track : int;
  sp_ts : Mv_util.Cycles.t;
  sp_dur : Mv_util.Cycles.t;
  sp_args : (string * string) list;
}

type open_span = {
  os_id : int;
  os_parent : int;
  os_name : string;
  os_cat : string;
  os_track : int;
  os_ts : int;
  mutable os_args : (string * string) list;
}

type t = {
  mutable on : bool;
  capacity : int;
  now : unit -> int;
  track : unit -> int;
  track_name : unit -> string;
  mutable next_id : int;
  mutable spans : span list;  (* newest first *)
  mutable nspans : int;
  mutable ndropped : int;
  mutable nopen : int;
  stacks : (int, open_span list ref) Hashtbl.t;  (* track -> open spans, innermost first *)
  track_labels : (int, string) Hashtbl.t;
}

let create ?(enabled = false) ?(capacity = 500_000) ~now ~track
    ?(track_name = fun () -> "") () =
  {
    on = enabled;
    capacity;
    now;
    track;
    track_name;
    next_id = 1;
    spans = [];
    nspans = 0;
    ndropped = 0;
    nopen = 0;
    stacks = Hashtbl.create 32;
    track_labels = Hashtbl.create 32;
  }

let enabled t = t.on
let set_enabled t flag = t.on <- flag

(* A track is labelled the first time it is touched, by a span or by
   [track]; the label is the thread's name at that moment. *)
let register t track =
  if not (Hashtbl.mem t.track_labels track) then
    let label = t.track_name () in
    Hashtbl.replace t.track_labels track
      (if label = "" then Printf.sprintf "track-%d" track else label)

let stack t track =
  match Hashtbl.find_opt t.stacks track with
  | Some s -> s
  | None ->
      let s = ref [] in
      Hashtbl.replace t.stacks track s;
      register t track;
      s

let track t =
  let track = t.track () in
  register t track;
  track

let push_span t sp =
  if t.nspans >= t.capacity then t.ndropped <- t.ndropped + 1
  else begin
    t.spans <- sp :: t.spans;
    t.nspans <- t.nspans + 1
  end

let begin_span t ?parent ~name ~cat () =
  if not t.on then 0
  else begin
    let track = t.track () in
    let st = stack t track in
    let parent =
      match parent with
      | Some p -> p
      | None -> ( match !st with [] -> 0 | os :: _ -> os.os_id)
    in
    let id = t.next_id in
    t.next_id <- id + 1;
    st :=
      { os_id = id; os_parent = parent; os_name = name; os_cat = cat;
        os_track = track; os_ts = t.now (); os_args = [] }
      :: !st;
    t.nopen <- t.nopen + 1;
    id
  end

let close_open t os ~at =
  t.nopen <- t.nopen - 1;
  push_span t
    {
      sp_id = os.os_id;
      sp_parent = os.os_parent;
      sp_name = os.os_name;
      sp_cat = os.os_cat;
      sp_track = os.os_track;
      sp_ts = os.os_ts;
      sp_dur = max 0 (at - os.os_ts);
      sp_args = List.rev os.os_args;
    }

let end_span t id =
  if t.on && id <> 0 then begin
    let track = t.track () in
    let st = stack t track in
    (* Normally [id] is the innermost; if callers unwound past nested
       spans (an exception path), close the orphans too so every begun
       span ends exactly once. *)
    if List.exists (fun os -> os.os_id = id) !st then begin
      let at = t.now () in
      let rec unwind = function
        | [] -> []
        | os :: rest ->
            close_open t os ~at;
            if os.os_id = id then rest else unwind rest
      in
      st := unwind !st
    end
  end

let with_span t ?parent ~name ~cat f =
  if not t.on then f ()
  else begin
    let id = begin_span t ?parent ~name ~cat () in
    Fun.protect ~finally:(fun () -> end_span t id) f
  end

let complete t ?parent ?(args = []) ~name ~cat ~ts ~dur () =
  if not t.on then 0
  else begin
    let track = t.track () in
    ignore (stack t track);
    let id = t.next_id in
    t.next_id <- id + 1;
    push_span t
      {
        sp_id = id;
        sp_parent = Option.value parent ~default:0;
        sp_name = name;
        sp_cat = cat;
        sp_track = track;
        sp_ts = ts;
        sp_dur = max 0 dur;
        sp_args = args;
      };
    id
  end

let annotate t key value =
  if t.on then
    match !(stack t (t.track ())) with
    | [] -> ()
    | os :: _ -> os.os_args <- (key, value) :: os.os_args

let current t =
  if not t.on then 0
  else match !(stack t (t.track ())) with [] -> 0 | os :: _ -> os.os_id

let spans t = List.rev t.spans

let track_label t track =
  match Hashtbl.find_opt t.track_labels track with
  | Some l -> l
  | None -> Printf.sprintf "track-%d" track

let tracks t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.track_labels [] |> List.sort compare

let open_count t = t.nopen
let span_count t = t.nspans
let dropped t = t.ndropped

let clear t =
  t.spans <- [];
  t.nspans <- 0;
  t.ndropped <- 0;
  t.nopen <- 0;
  Hashtbl.reset t.stacks;
  Hashtbl.reset t.track_labels
