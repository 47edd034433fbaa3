exception Cancelled

(* A resumer is the captured continuation itself: suspending allocates no
   record, no option and no closure around it, and a parked fiber costs the
   host heap one continuation block (its stack lives outside the heap).
   The runtime already makes a continuation one-shot; a second use raises
   [Effect.Continuation_already_resumed], which is reported under this
   module's own message.  Suspend/resume is the innermost host hot path —
   every simulated block, sleep, and yield goes through here. *)
type 'a resumer = ('a, unit) Effect.Deep.continuation

type _ Effect.t += Suspend : ('a resumer -> unit) -> 'a Effect.t

let suspend register = Effect.perform (Suspend register)
let used_twice () = failwith "Fiber: resumer used twice"

let resume k v =
  match Effect.Deep.continue k v with
  | () -> ()
  | exception Effect.Continuation_already_resumed -> used_twice ()

let cancel k e =
  match Effect.Deep.discontinue k e with
  | () -> ()
  | exception Effect.Continuation_already_resumed -> used_twice ()

(* One handler for every fiber (no captured state), so [run_with] allocates
   nothing beyond the effect machinery itself: the registration function is
   handed the continuation directly. *)
let handler =
  let open Effect.Deep in
  {
    retc = (fun () -> ());
    exnc = (fun e -> match e with Cancelled -> () | _ -> raise e);
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Suspend register -> Some (register : (a, unit) continuation -> unit)
        | _ -> None);
  }

let run_with f x = Effect.Deep.match_with f x handler
let run body = run_with body ()
