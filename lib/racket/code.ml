type prim =
  | Padd | Psub | Pmul | Pdiv | Pquotient | Premainder | Pmodulo
  | Pabs | Pmin | Pmax | Pexpt | Psqrt | Pfloor | Ptruncate | Pround
  | Pexact_to_inexact | Pinexact_to_exact | Psin | Pcos | Patan | Plog | Pexp
  | Plt | Pgt | Ple | Pge | Pnumeq
  | Pzerop | Pevenp | Poddp | Pnegativep | Ppositivep
  | Peq | Peqv | Pequal | Pnot | Pnullp | Ppairp | Pnumberp | Pintegerp
  | Pstringp | Psymbolp | Pprocedurep | Pvectorp | Pbooleanp | Pcharp
  | Pcons | Pcar | Pcdr | Psetcar | Psetcdr | Plist | Plength | Pappend
  | Preverse | Plist_ref | Plist_tail | Pmemq | Pmember | Passq | Passv
  | Pmake_vector | Pvector | Pvector_ref | Pvector_set | Pvector_length
  | Pvector_fill
  | Pstring_length | Pstring_ref | Pstring_set | Pmake_string | Pstring_append
  | Psubstring | Pstring_to_symbol | Psymbol_to_string | Pnumber_to_string
  | Pstring_to_number | Pstring_eq | Pstring_copy | Plist_to_string
  | Pstring_to_list | Pchar_to_integer | Pinteger_to_char | Pchar_eq
  | Preal_to_decimal_string
  | Pbox | Punbox | Pset_box
  | Pdisplay | Pwrite | Pnewline | Pwrite_char | Pwrite_string | Pread_line
  | Pflush_output | Pvoid | Perror | Papply | Pcurrent_seconds | Pcollect_garbage
  | Pplace_spawn | Pplace_send | Pplace_recv | Pplace_wait
  | Popen_input | Popen_output | Pclose_port | Peof_objectp | Pportp | Pread_char

let prim_table =
  [
    ("+", Padd, None);
    ("-", Psub, None);
    ("*", Pmul, None);
    ("/", Pdiv, None);
    ("quotient", Pquotient, Some 2);
    ("remainder", Premainder, Some 2);
    ("modulo", Pmodulo, Some 2);
    ("abs", Pabs, Some 1);
    ("min", Pmin, None);
    ("max", Pmax, None);
    ("expt", Pexpt, Some 2);
    ("sqrt", Psqrt, Some 1);
    ("floor", Pfloor, Some 1);
    ("truncate", Ptruncate, Some 1);
    ("round", Pround, Some 1);
    ("exact->inexact", Pexact_to_inexact, Some 1);
    ("inexact->exact", Pinexact_to_exact, Some 1);
    ("exact", Pinexact_to_exact, Some 1);
    ("sin", Psin, Some 1);
    ("cos", Pcos, Some 1);
    ("atan", Patan, Some 1);
    ("log", Plog, Some 1);
    ("exp", Pexp, Some 1);
    ("<", Plt, None);
    (">", Pgt, None);
    ("<=", Ple, None);
    (">=", Pge, None);
    ("=", Pnumeq, None);
    ("zero?", Pzerop, Some 1);
    ("even?", Pevenp, Some 1);
    ("odd?", Poddp, Some 1);
    ("negative?", Pnegativep, Some 1);
    ("positive?", Ppositivep, Some 1);
    ("eq?", Peq, Some 2);
    ("eqv?", Peqv, Some 2);
    ("equal?", Pequal, Some 2);
    ("not", Pnot, Some 1);
    ("null?", Pnullp, Some 1);
    ("pair?", Ppairp, Some 1);
    ("number?", Pnumberp, Some 1);
    ("integer?", Pintegerp, Some 1);
    ("string?", Pstringp, Some 1);
    ("symbol?", Psymbolp, Some 1);
    ("procedure?", Pprocedurep, Some 1);
    ("vector?", Pvectorp, Some 1);
    ("boolean?", Pbooleanp, Some 1);
    ("char?", Pcharp, Some 1);
    ("cons", Pcons, Some 2);
    ("car", Pcar, Some 1);
    ("cdr", Pcdr, Some 1);
    ("set-car!", Psetcar, Some 2);
    ("set-cdr!", Psetcdr, Some 2);
    ("list", Plist, None);
    ("length", Plength, Some 1);
    ("append", Pappend, None);
    ("reverse", Preverse, Some 1);
    ("list-ref", Plist_ref, Some 2);
    ("list-tail", Plist_tail, Some 2);
    ("memq", Pmemq, Some 2);
    ("member", Pmember, Some 2);
    ("assq", Passq, Some 2);
    ("assv", Passv, Some 2);
    ("make-vector", Pmake_vector, None);
    ("vector", Pvector, None);
    ("vector-ref", Pvector_ref, Some 2);
    ("vector-set!", Pvector_set, Some 3);
    ("vector-length", Pvector_length, Some 1);
    ("vector-fill!", Pvector_fill, Some 2);
    ("string-length", Pstring_length, Some 1);
    ("string-ref", Pstring_ref, Some 2);
    ("string-set!", Pstring_set, Some 3);
    ("make-string", Pmake_string, None);
    ("string-append", Pstring_append, None);
    ("substring", Psubstring, Some 3);
    ("string->symbol", Pstring_to_symbol, Some 1);
    ("symbol->string", Psymbol_to_string, Some 1);
    ("number->string", Pnumber_to_string, Some 1);
    ("string->number", Pstring_to_number, Some 1);
    ("string=?", Pstring_eq, Some 2);
    ("string-copy", Pstring_copy, Some 1);
    ("list->string", Plist_to_string, Some 1);
    ("string->list", Pstring_to_list, Some 1);
    ("char->integer", Pchar_to_integer, Some 1);
    ("integer->char", Pinteger_to_char, Some 1);
    ("char=?", Pchar_eq, Some 2);
    ("real->decimal-string", Preal_to_decimal_string, Some 2);
    ("box", Pbox, Some 1);
    ("unbox", Punbox, Some 1);
    ("set-box!", Pset_box, Some 2);
    ("display", Pdisplay, None);
    ("write", Pwrite, None);
    ("newline", Pnewline, None);
    ("write-char", Pwrite_char, None);
    ("write-string", Pwrite_string, None);
    ("read-line", Pread_line, None);
    ("flush-output", Pflush_output, None);
    ("void", Pvoid, Some 0);
    ("error", Perror, None);
    ("apply", Papply, Some 2);
    ("current-seconds", Pcurrent_seconds, Some 0);
    ("collect-garbage", Pcollect_garbage, Some 0);
    ("place-spawn", Pplace_spawn, Some 1);
    ("place-send", Pplace_send, Some 2);
    ("place-receive", Pplace_recv, Some 1);
    ("place-wait", Pplace_wait, Some 1);
    ("open-input-file", Popen_input, Some 1);
    ("open-output-file", Popen_output, Some 1);
    ("close-port", Pclose_port, Some 1);
    ("close-input-port", Pclose_port, Some 1);
    ("close-output-port", Pclose_port, Some 1);
    ("eof-object?", Peof_objectp, Some 1);
    ("port?", Pportp, Some 1);
    ("read-char", Pread_char, None);
  ]

let prim_map =
  let h = Hashtbl.create 128 in
  List.iter (fun (name, p, arity) -> Hashtbl.replace h name (p, arity)) prim_table;
  h

let prim_of_name name = Hashtbl.find_opt prim_map name

type instr =
  | Imm of Value.v
  | Const of int
  | Lref of int * int
  | Lset of int * int
  | Gref of int
  | Gset of int
  | MkClosure of int
  | Call of int
  | TailCall of int
  | Ret
  | Jmp of int
  | Jif of int
  | Pop
  | Prim of prim * int
  | PrimVarargs of prim
  | PushFrame of int
  | PopFrame

type code = {
  c_name : string;
  c_arity : int;
  c_frame_size : int;
  c_level : int;
  mutable c_instrs : instr array;
  mutable c_jitted : bool;
  mutable c_no_capture : int;
}

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
}

let make_cstate gc =
  {
    gc;
    syms = Hashtbl.create 256;
    sym_names = Array.make 256 "";
    nsyms = 0;
    globals_map = Hashtbl.create 256;
    nglobals = 0;
    codes =
      Array.make 64
        { c_name = ""; c_arity = 0; c_frame_size = 0; c_level = -1; c_instrs = [||];
          c_jitted = false; c_no_capture = -1 };
    ncodes = 0;
    constants = Array.make 64 Value.vundef;
    nconstants = 0;
    gensym = 0;
  }

let intern cs name =
  match Hashtbl.find_opt cs.syms name with
  | Some id -> id
  | None ->
      let id = cs.nsyms in
      cs.nsyms <- id + 1;
      if id >= Array.length cs.sym_names then begin
        let a = Array.make (2 * Array.length cs.sym_names) "" in
        Array.blit cs.sym_names 0 a 0 id;
        cs.sym_names <- a
      end;
      cs.sym_names.(id) <- name;
      Hashtbl.replace cs.syms name id;
      id

let sym_name cs id = cs.sym_names.(id)

let global_slot cs name =
  match Hashtbl.find_opt cs.globals_map name with
  | Some i -> i
  | None ->
      let i = cs.nglobals in
      cs.nglobals <- i + 1;
      Hashtbl.replace cs.globals_map name i;
      i

let find_global cs name = Hashtbl.find_opt cs.globals_map name

let add_code cs code =
  let i = cs.ncodes in
  if i >= Array.length cs.codes then begin
    let a = Array.make (2 * Array.length cs.codes) cs.codes.(0) in
    Array.blit cs.codes 0 a 0 i;
    cs.codes <- a
  end;
  cs.codes.(i) <- code;
  cs.ncodes <- i + 1;
  i

let add_constant cs v =
  let i = cs.nconstants in
  if i >= Array.length cs.constants then begin
    let a = Array.make (2 * Array.length cs.constants) Value.vundef in
    Array.blit cs.constants 0 a 0 i;
    cs.constants <- a
  end;
  cs.constants.(i) <- v;
  cs.nconstants <- i + 1;
  i
