(** Tagged Scheme values over the SGC heap.

    Values are machine words.  Immediates carry their payload in the word;
    everything else is a pointer (low three bits zero) to a heap object
    whose header encodes a type tag and payload size:

    {v
    bit 0 = 1          fixnum (61-bit, two's complement)
    bits 0..2 = 010    interned symbol (id in the upper bits)
    bits 0..2 = 100    character (code in the upper bits)
    bits 0..2 = 110    special constant / port (index in the upper bits)
    bits 0..2 = 000    heap pointer
    v} *)

type v = int

(** {1 Immediates} *)

val fixnum : int -> v
val is_fixnum : v -> bool
val fixnum_val : v -> int
val sym : int -> v
val is_sym : v -> bool
val sym_id : v -> int
val char_v : char -> v
val is_char : v -> bool
val char_val : v -> char
val nil : v
val vtrue : v
val vfalse : v
val vvoid : v
val veof : v
val vundef : v
val bool_v : bool -> v
val is_truthy : v -> bool
(** Everything except [#f] is true, as in Scheme. *)

val port_v : int -> v
val is_port : v -> bool
val port_id : v -> int

(** {1 Heap object tags} *)

val tag_pair : int
val tag_vector : int
val tag_string : int
val tag_flonum : int
val tag_closure : int
val tag_box : int
val tag_frame : int

val register_scannable : Sgc.t -> unit
(** Tell the collector which tags hold values in their payloads. *)

(** {1 Constructors and accessors (over a heap)} *)

val cons : Sgc.t -> v -> v -> v
val is_pair : Sgc.t -> v -> bool
val car : Sgc.t -> v -> v
val cdr : Sgc.t -> v -> v
val set_car : Sgc.t -> v -> v -> unit
val set_cdr : Sgc.t -> v -> v -> unit
val list_of : Sgc.t -> v list -> v
val to_list : Sgc.t -> v -> v list
(** @raise Invalid_argument on improper lists. *)

val make_vector : Sgc.t -> int -> v -> v
val is_vector : Sgc.t -> v -> bool
val vector_length : Sgc.t -> v -> int

val checked_vector_length : Sgc.t -> v -> int
(** [v]'s length if it is a vector, else -1: the type and the length come
    from one header read. *)

val vector_ref : Sgc.t -> v -> int -> v
val vector_set : Sgc.t -> v -> int -> v -> unit

val string_v : Sgc.t -> string -> v
val is_string : Sgc.t -> v -> bool
val string_length : Sgc.t -> v -> int
val string_val : Sgc.t -> v -> string
val string_ref : Sgc.t -> v -> int -> char
val string_set : Sgc.t -> v -> int -> char -> unit

val flonum : Sgc.t -> float -> v
val is_flonum : Sgc.t -> v -> bool
val flonum_val : Sgc.t -> v -> float

val closure : Sgc.t -> code:int -> env:v -> v
val is_closure : Sgc.t -> v -> bool
val closure_code : Sgc.t -> v -> int
val closure_env : Sgc.t -> v -> v

val box_v : Sgc.t -> v -> v
val is_box : Sgc.t -> v -> bool
val unbox : Sgc.t -> v -> v
val set_box : Sgc.t -> v -> v -> unit

val frame : Sgc.t -> parent:v -> size:int -> v
val frame_parent : Sgc.t -> v -> v
val frame_set_parent : Sgc.t -> v -> v -> unit
val frame_ref : Sgc.t -> v -> int -> v
val frame_set : Sgc.t -> v -> int -> v -> unit
val frame_size : Sgc.t -> v -> int

(** {1 Generic operations} *)

val eqv : Sgc.t -> v -> v -> bool
(** Pointer/immediate identity, with flonum value comparison. *)

val equal : Sgc.t -> v -> v -> bool
(** Structural equality. *)

val type_name : Sgc.t -> v -> string
