(** Bytecode representation and shared compilation state. *)

type prim =
  (* numbers *)
  | Padd | Psub | Pmul | Pdiv | Pquotient | Premainder | Pmodulo
  | Pabs | Pmin | Pmax | Pexpt | Psqrt | Pfloor | Ptruncate | Pround
  | Pexact_to_inexact | Pinexact_to_exact | Psin | Pcos | Patan | Plog | Pexp
  | Plt | Pgt | Ple | Pge | Pnumeq
  | Pzerop | Pevenp | Poddp | Pnegativep | Ppositivep
  (* predicates *)
  | Peq | Peqv | Pequal | Pnot | Pnullp | Ppairp | Pnumberp | Pintegerp
  | Pstringp | Psymbolp | Pprocedurep | Pvectorp | Pbooleanp | Pcharp
  (* pairs and lists *)
  | Pcons | Pcar | Pcdr | Psetcar | Psetcdr | Plist | Plength | Pappend
  | Preverse | Plist_ref | Plist_tail | Pmemq | Pmember | Passq | Passv
  (* vectors *)
  | Pmake_vector | Pvector | Pvector_ref | Pvector_set | Pvector_length
  | Pvector_fill
  (* strings and chars *)
  | Pstring_length | Pstring_ref | Pstring_set | Pmake_string | Pstring_append
  | Psubstring | Pstring_to_symbol | Psymbol_to_string | Pnumber_to_string
  | Pstring_to_number | Pstring_eq | Pstring_copy | Plist_to_string
  | Pstring_to_list | Pchar_to_integer | Pinteger_to_char | Pchar_eq
  | Preal_to_decimal_string
  (* boxes *)
  | Pbox | Punbox | Pset_box
  (* I/O and misc *)
  | Pdisplay | Pwrite | Pnewline | Pwrite_char | Pwrite_string | Pread_line
  | Pflush_output | Pvoid | Perror | Papply | Pcurrent_seconds | Pcollect_garbage
  | Pplace_spawn | Pplace_send | Pplace_recv | Pplace_wait
  | Popen_input | Popen_output | Pclose_port | Peof_objectp | Pportp | Pread_char

val prim_of_name : string -> (prim * int option) option
(** Primitive and its required arity ([None] = variadic). *)

type instr =
  | Imm of Value.v  (** push an immediate value *)
  | Const of int  (** push constants.(i) (quoted structure) *)
  | Lref of int * int  (** (depth, slot) lexical reference *)
  | Lset of int * int
  | Gref of int
  | Gset of int
  | MkClosure of int  (** code index; captures the current frame *)
  | Call of int  (** argc *)
  | TailCall of int
  | Ret
  | Jmp of int  (** absolute target *)
  | Jif of int  (** pop; jump if false *)
  | Pop
  | Prim of prim * int  (** primitive with argc *)
  | PrimVarargs of prim
      (** body of a synthetic variadic-primitive closure; accepts the
          caller's argument count *)
  | PushFrame of int
      (** [let]: pop n values into a fresh frame and make it current *)
  | PopFrame  (** leave a [let] body (non-tail position) *)

type code = {
  c_name : string;
  c_arity : int;
  c_frame_size : int;  (** slots in the activation frame (>= arity) *)
  c_level : int;
      (** lexical level of the activation frame: the number of frames
          below it on its environment chain; -1 for top-level code and the
          variadic-primitive shims, which have no frame *)
  mutable c_instrs : instr array;
  mutable c_jitted : bool;  (** JIT-compiled on first call *)
  mutable c_no_capture : int;  (** frame-capture analysis: -1 unknown, 0 captures, 1 free *)
}

(** Shared state between the compiler and the VM: interned symbols, the
    global table, code objects, and the (GC-rooted) constants pool. *)
type cstate = {
  gc : Sgc.t;
  syms : (string, int) Hashtbl.t;
  mutable sym_names : string array;
  mutable nsyms : int;
  globals_map : (string, int) Hashtbl.t;
  mutable nglobals : int;
  mutable codes : code array;
  mutable ncodes : int;
  mutable constants : Value.v array;
  mutable nconstants : int;
  mutable gensym : int;
      (** compiler temporary-name counter — per-unit so concurrent
          compilations on different domains stay independent and every
          run names its temporaries identically *)
}

val make_cstate : Sgc.t -> cstate
val intern : cstate -> string -> int
val sym_name : cstate -> int -> string
val global_slot : cstate -> string -> int
val find_global : cstate -> string -> int option
val add_code : cstate -> code -> int
val add_constant : cstate -> Value.v -> int
