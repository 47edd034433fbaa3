type record = { at : Mv_util.Cycles.t; track : int; category : string; message : string }

(* --- typed events ------------------------------------------------- *)

type payload =
  | Page_fault of { pid : int; vma : string option; page_off : int; addr : int; write : bool }
  | Fatal_signal of { signal : string; pid : int; addr : int }
  | Fault_injected of { site : string; ctx : string }
  | Channel_retry of { attempt : int; backoff : int; kind : string }
  | Channel_exhausted of { retries : int; kind : string }
  | Server_survived of { msg : string }
  | Degrade_sync_to_async
  | Channel_marked_failed
  | Watchdog_respawn of { was : string }
  | Fallback_sync_to_async of { kind : string }
  | Reroute of { kind : string; spurious_errnos : bool }
  | Ride_timeout of { kind : string }
  | Errno_retry of { attempt : int; kind : string }
  | Overload_shed of { kind : string; endpoint : string }
  | Shed_mode of { on : bool }
  | Restore_async_to_sync
  | Repartition of { core : int; src : int; dst : int; moved : int }
  | Message of { category : string; text : string }

let category_of = function
  | Page_fault _ -> "pagefault"
  | Fatal_signal _ -> "fatal"
  | Fault_injected _ -> "fault"
  | Channel_retry _ | Channel_exhausted _ | Server_survived _ | Degrade_sync_to_async
  | Channel_marked_failed | Watchdog_respawn _ | Fallback_sync_to_async _ | Reroute _
  | Ride_timeout _ | Errno_retry _ ->
      "resilience"
  | Overload_shed _ | Shed_mode _ | Restore_async_to_sync -> "overload"
  | Repartition _ -> "partition"
  | Message { category; _ } -> category

(* Renderings are the record shapes tests and the golden trace assert
   on — byte-for-byte the strings the printf call sites used to emit. *)
let render = function
  | Page_fault { pid; vma = Some kind; page_off; write; _ } ->
      Printf.sprintf "pid=%d vma=%s+%d w=%b" pid kind page_off write
  | Page_fault { pid; vma = None; addr; write; _ } ->
      Printf.sprintf "pid=%d addr=%x w=%b" pid addr write
  | Fatal_signal { signal; pid; addr } -> Printf.sprintf "%s pid=%d addr=%x" signal pid addr
  | Fault_injected { site; ctx } -> Printf.sprintf "inject %s %s" site ctx
  | Channel_retry { attempt; backoff; kind } ->
      Printf.sprintf "retry %d backoff=%d: %s" attempt backoff kind
  | Channel_exhausted { retries; kind } ->
      Printf.sprintf "channel failure after %d retries: %s" retries kind
  | Server_survived { msg } -> "server survived: " ^ msg
  | Degrade_sync_to_async -> "degrade sync->async"
  | Channel_marked_failed -> "channel marked failed"
  | Watchdog_respawn { was } -> Printf.sprintf "watchdog respawn poller (was %s)" was
  | Fallback_sync_to_async { kind } -> "fallback sync->async: " ^ kind
  | Reroute { kind; spurious_errnos = false } -> "reroute ros-native: " ^ kind
  | Reroute { kind; spurious_errnos = true } ->
      "reroute ros-native after spurious errnos: " ^ kind
  | Ride_timeout { kind } -> "ride timeout, escalating: " ^ kind
  | Errno_retry { attempt; kind } ->
      Printf.sprintf "retry %d after spurious errno: %s" attempt kind
  | Overload_shed { kind; endpoint } -> Printf.sprintf "overload shed %s @%s" kind endpoint
  | Shed_mode { on = true } -> "shed mode on: sync->async, doorbell suppression widened"
  | Shed_mode { on = false } -> "shed mode off: endpoints restored"
  | Restore_async_to_sync -> "restore async->sync"
  | Repartition { core; src; dst; moved } ->
      Printf.sprintf "core %d: partition %d -> %d (rehomed %d threads)" core src dst moved
  | Message { text; _ } -> text

(* --- the record store --------------------------------------------- *)

(* Entries are kept newest-first, plus a per-category index maintained on
   emit so [records_in]/[count_in] are O(category size)/O(1) instead of
   rebuilding and filtering the full reversed list per call (bench runs
   with tracing on used to go quadratic in hot categories). *)
type bucket = { mutable b_entries : record list (* newest first *); mutable b_count : int }

type t = {
  mutable enabled : bool;
  capacity : int;
  mutable entries : record list;  (* newest first *)
  mutable count : int;
  by_category : (string, bucket) Hashtbl.t;
  (* Oldest-first view served by [records]; rebuilt lazily so repeated
     calls after a run stop paying a [List.rev] each (exporters and
     tests call it in loops). *)
  mutable memo : record list;
  mutable memo_valid : bool;
}

let create ?(enabled = false) ?(capacity = 100_000) () =
  {
    enabled;
    capacity;
    entries = [];
    count = 0;
    by_category = Hashtbl.create 16;
    memo = [];
    memo_valid = true;
  }

let enable t flag = t.enabled <- flag
let enabled t = t.enabled

let bucket by_category category =
  match Hashtbl.find_opt by_category category with
  | Some b -> b
  | None ->
      let b = { b_entries = []; b_count = 0 } in
      Hashtbl.replace by_category category b;
      b

let index t r =
  let b = bucket t.by_category r.category in
  b.b_entries <- r :: b.b_entries;
  b.b_count <- b.b_count + 1

let add t r =
  t.memo_valid <- false;
  t.entries <- r :: t.entries;
  t.count <- t.count + 1;
  index t r;
  if t.count > t.capacity then begin
    (* Drop the oldest half; O(n) but amortized and rare. *)
    t.entries <- List.filteri (fun i _ -> i < t.capacity / 2) t.entries;
    t.count <- t.capacity / 2;
    Hashtbl.reset t.by_category;
    (* [entries] is newest-first; index from the oldest end so each
       bucket also ends up newest-first. *)
    List.iter (index t) (List.rev t.entries)
  end

let emit_event t ~at ~track payload =
  (* The disabled path must stay one branch: [render] (and therefore any
     formatting or allocation) only runs when the trace is live. *)
  if t.enabled then
    add t { at; track; category = category_of payload; message = render payload }

let records t =
  if not t.memo_valid then begin
    t.memo <- List.rev t.entries;
    t.memo_valid <- true
  end;
  t.memo

let records_in t ~category =
  match Hashtbl.find_opt t.by_category category with
  | Some b -> List.rev b.b_entries
  | None -> []

let count_in t ~category =
  match Hashtbl.find_opt t.by_category category with Some b -> b.b_count | None -> 0

let instants t =
  List.map
    (fun r ->
      {
        Mv_obs.Export.in_name = r.category;
        in_cat = r.category;
        in_track = r.track;
        in_ts = r.at;
        in_detail = r.message;
      })
    (records t)

let pp ppf t =
  List.iter
    (fun r -> Format.fprintf ppf "[%12d %-10s] %s@." r.at r.category r.message)
    (records t)
