type span = { id : int; parent : int; name : string; t0 : float; t1 : float; words : float }

type t = {
  mutable enabled : bool;
  mutable next_id : int;
  mutable stack : int list;
  mutable done_ : span list;  (* newest first *)
}

let create () = { enabled = false; next_id = 1; stack = []; done_ = [] }
let set_enabled t b = t.enabled <- b

let with_span t name f =
  if not t.enabled then f ()
  else begin
    let id = t.next_id in
    t.next_id <- id + 1;
    let parent = match t.stack with p :: _ -> p | [] -> 0 in
    t.stack <- id :: t.stack;
    let w0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    Fun.protect f ~finally:(fun () ->
        let t1 = Unix.gettimeofday () in
        let words = Gc.minor_words () -. w0 in
        t.stack <- List.filter (fun i -> i <> id) t.stack;
        t.done_ <- { id; parent; name; t0; t1; words } :: t.done_)
  end

let last t name = List.find_opt (fun s -> s.name = name) t.done_
let spans t = List.rev t.done_

let clear t =
  t.next_id <- 1;
  t.stack <- [];
  t.done_ <- []

let self_seconds all s =
  List.fold_left
    (fun acc c -> if c.parent = s.id then acc -. (c.t1 -. c.t0) else acc)
    (s.t1 -. s.t0) all

let to_chrome all =
  let origin = List.fold_left (fun m s -> Float.min m s.t0) infinity all in
  let us x = Json.Num (Float.round ((x -. origin) *. 1e7) /. 10.) in
  let event s =
    Json.Obj
      [
        ("name", Json.Str s.name);
        ("ph", Json.Str "X");
        ("pid", Json.Num 1.);
        ("tid", Json.Num 1.);
        ("ts", us s.t0);
        ("dur", Json.Num (Float.round ((s.t1 -. s.t0) *. 1e7) /. 10.));
        ( "args",
          Json.Obj
            [
              ("id", Json.Num (float_of_int s.id));
              ("parent", Json.Num (float_of_int s.parent));
              ("minor_words", Json.Num s.words);
            ] );
      ]
  in
  Json.to_string (Json.Obj [ ("traceEvents", Json.Arr (List.map event all)) ])
