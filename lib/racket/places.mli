(** Racket-style places: isolated parallel Scheme instances.

    The paper's future work targets parallel runtime systems, and cites
    Racket's own places work (Tew et al., DLS 2011).  A place runs a
    program in its own VM and GC heap on its own OS thread — which, under
    Multiverse's pthread override, means {e its own HRT execution group on
    the kernel side}.  Places share nothing; they communicate by sending
    immutable messages over channels, deep-copied between heaps.

    Scheme API (available once the engine enables places):

    {v
    (place-spawn "source...")   ; start a place, returns its id
    (place-send id v)           ; send a message (id 0 = my parent)
    (place-receive id)          ; blocking receive
    (place-wait id)             ; block until the place's program finishes
    v} *)

(** Heap-independent message representation (the "transferable" values). *)
type msg =
  | M_int of int
  | M_float of float
  | M_bool of bool
  | M_char of char
  | M_string of string
  | M_sym of string
  | M_nil
  | M_void
  | M_list of msg list
  | M_vector of msg array

exception Not_transferable of string
(** Raised when a value with identity (closure, box, port) or an improper
    list is sent. *)

val encode : Code.cstate -> Value.v -> msg
(** Deep-copy a value out of a VM's heap.  @raise Not_transferable *)

val decode : Code.cstate -> msg -> Value.v
(** Rebuild a message inside a VM's heap. *)

(** A blocking, simulation-aware message queue. *)
type channel

val channel : Mv_guest.Env.t -> channel
val send : channel -> msg -> unit
val receive : channel -> msg
(** Blocks the simulated thread until a message arrives. *)
