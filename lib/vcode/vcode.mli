(** A VCODE interpreter — the NESL virtual machine, the second runtime the
    authors hand-ported to Nautilus (paper, Section 2; Blelloch et al.,
    "Implementation of a portable nested data-parallel language").

    VCODE is a stack machine whose stack holds {e vectors}; every
    instruction is a data-parallel operation (elementwise arithmetic,
    scans, reductions, permutations, packing) plus scalar control flow
    (functions and conditionals).  NESL's nested parallelism is flattened
    into segmented vector operations.

    Programs are written in a textual assembly:

    {v
    FUNC main          ; entry point
      CONST INT 10
      IOTA             ; [0 1 2 ... 9]
      COPY             ; duplicate the top vector
      * INT            ; elementwise square
      +_REDUCE INT     ; sum
      RET
    v}

    Execution charges virtual cycles per element; when a {!Mv_parallel.Pool}
    is supplied, each vector operation above a length threshold becomes a
    parallel region — the way the Nautilus/Legion port ran VCODE. *)

type value =
  | V_int of int array
  | V_float of float array
  | V_bool of bool array

exception Vcode_error of string

(** {1 Programs} *)

type program

val parse : string -> program
(** Assemble a program.  @raise Vcode_error on syntax errors (unknown
    opcode, unbalanced IF/ENDIF, duplicate or missing FUNC). *)

(** {1 Execution} *)

type t

val create : ?pool:Mv_parallel.Pool.t -> charge:(int -> unit) -> unit -> t
(** An interpreter instance.  [charge] accounts virtual cycles (wire it to
    [Env.work] or [Pool.charge]); with [pool], vector operations fan out. *)

val run : t -> program -> ?entry:string -> value list -> value list
(** Execute [entry] (default ["main"]) with the given initial stack
    (bottom first); returns the final stack (bottom first).
    @raise Vcode_error on dynamic errors (type/length mismatches, stack
    underflow, unbounded recursion). *)

val elements_processed : t -> int

(** {1 Helpers} *)

val int_vec : int array -> value
val float_vec : float array -> value
val to_int_array : value -> int array
val to_float_array : value -> float array
val pp_value : Format.formatter -> value -> unit
