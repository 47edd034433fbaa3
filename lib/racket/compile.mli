(** The bytecode compiler (the runtime's "JIT" front half).

    Covers the Scheme subset the Benchmarks Game programs use: [define]
    (top-level and internal), [lambda] (fixed arity), [let]/[let*]/
    [letrec]/named [let], [do], [if]/[cond]/[case]/[when]/[unless],
    [and]/[or], [begin], [set!], [quote], and direct application of the
    primitives in {!Code.prim_of_name}.  Fixed-arity primitives referenced
    as values are eta-expanded automatically. *)

exception Compile_error of string

val compile_toplevel : Code.cstate -> Sexp.t list -> int
(** Compile a program (a sequence of top-level forms) to one arity-0 code
    object; returns its code index.  The final form's value is the
    program's result. *)
