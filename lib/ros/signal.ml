type signo = Sigsegv | Sigvtalrm | Sigint | Sigusr1 | Sigusr2 | Sigchld

let name = function
  | Sigsegv -> "SIGSEGV"
  | Sigvtalrm -> "SIGVTALRM"
  | Sigint -> "SIGINT"
  | Sigusr1 -> "SIGUSR1"
  | Sigusr2 -> "SIGUSR2"
  | Sigchld -> "SIGCHLD"

type siginfo = { si_signo : signo; si_addr : Mv_hw.Addr.t; si_write : bool }

type handler = Default | Ignore | Handler of (siginfo -> unit)

type t = {
  actions : (signo, handler) Hashtbl.t;
  mutable blocked : signo list;
}

let create () = { actions = Hashtbl.create 8; blocked = [] }

let set_action t signo h = Hashtbl.replace t.actions signo h
let clear_actions t = Hashtbl.reset t.actions

let action t signo =
  match Hashtbl.find_opt t.actions signo with Some h -> h | None -> Default

let registered t signo =
  match action t signo with Handler _ -> true | Default | Ignore -> false

let block t signo = if not (List.mem signo t.blocked) then t.blocked <- signo :: t.blocked
let unblock t signo = t.blocked <- List.filter (fun s -> s <> signo) t.blocked
let is_blocked t signo = List.mem signo t.blocked
