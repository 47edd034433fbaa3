type t = {
  mutable clock : Mv_util.Cycles.t;
  queue : (unit -> unit) Event_queue.t;
  mutable processed : int;
}

let create () = { clock = 0; queue = Event_queue.create (); processed = 0 }

let now t = t.clock

let schedule_at t time fn =
  if time < t.clock then
    invalid_arg
      (Printf.sprintf "Sim.schedule_at: time %d is before now %d" time t.clock);
  Event_queue.push t.queue ~time fn

let schedule_after t delay fn = schedule_at t (t.clock + delay) fn

(* [next_time] returns [max_int] on empty, so the hot loop runs without
   allocating an option per event; an event legitimately scheduled at
   [max_int] is disambiguated by the emptiness check. *)
let step t =
  let time = Event_queue.next_time t.queue in
  if time = max_int && Event_queue.is_empty t.queue then false
  else begin
    let fn = Event_queue.pop_exn t.queue in
    t.clock <- time;
    t.processed <- t.processed + 1;
    fn ();
    true
  end

let run t = while step t do () done

let run_bounded t ~max_events =
  let budget = ref max_events in
  let continue = ref true in
  let quiesced = ref true in
  while !continue do
    if !budget <= 0 then begin
      continue := false;
      quiesced := Event_queue.is_empty t.queue
    end
    else if step t then decr budget
    else continue := false
  done;
  !quiesced

let run_until t limit =
  let continue = ref true in
  while !continue do
    let time = Event_queue.next_time t.queue in
    if time <= limit then begin
      if not (step t) then begin
        continue := false;
        if t.clock < limit then t.clock <- limit
      end
    end
    else begin
      continue := false;
      if t.clock < limit then t.clock <- limit
    end
  done

let events_processed t = t.processed
