open Code

exception Compile_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Compile_error s)) fmt

(* --- instruction emitter with back-patching --- *)

type emitter = { mutable arr : instr array; mutable n : int }

let new_emitter () = { arr = Array.make 32 Ret; n = 0 }

let emit e i =
  if e.n >= Array.length e.arr then begin
    let a = Array.make (2 * Array.length e.arr) Ret in
    Array.blit e.arr 0 a 0 e.n;
    e.arr <- a
  end;
  e.arr.(e.n) <- i;
  e.n <- e.n + 1;
  e.n - 1

let here e = e.n
let patch e pos i = e.arr.(pos) <- i
let finish e = Array.sub e.arr 0 e.n

(* --- desugaring helpers --- *)

(* Counter lives in the compilation unit, not the process: concurrent
   compilations on other domains don't perturb the names here. *)
let gensym cs prefix =
  cs.gensym <- cs.gensym + 1;
  Printf.sprintf " %s%d" prefix cs.gensym  (* leading space: unreadable *)

let sym s = Sexp.Atom_sym s
let slist l = Sexp.List l

(* Internal defines at the head of a body become a letrec*-style prologue:
   the frame gains their names, and the body starts with set!s. *)
let split_internal_defines body =
  let rec go defs = function
    | Sexp.List (Sexp.Atom_sym "define" :: Sexp.List (Sexp.Atom_sym name :: params) :: fbody)
      :: rest ->
        go ((name, slist (sym "lambda" :: slist params :: fbody)) :: defs) rest
    | Sexp.List [ Sexp.Atom_sym "define"; Sexp.Atom_sym name; expr ] :: rest ->
        go ((name, expr) :: defs) rest
    | rest -> (List.rev defs, rest)
  in
  go [] body

(* --- lexical environments --- *)

type cenv = string list list

let lookup (cenv : cenv) name =
  let rec go depth = function
    | [] -> None
    | frame :: rest -> (
        match List.find_index (String.equal name) frame with
        | Some idx -> Some (depth, idx)
        | None -> go (depth + 1) rest)
  in
  go 0 cenv

(* --- compiler --- *)

let special_forms =
  [ "quote"; "if"; "begin"; "lambda"; "define"; "set!"; "let"; "let*"; "letrec";
    "letrec*"; "and"; "or"; "cond"; "case"; "when"; "unless"; "do"; "named-lambda" ]

let rec compile_quote cs (d : Sexp.t) : Value.v =
  match d with
  | Sexp.Atom_int n -> Value.fixnum n
  | Sexp.Atom_bool b -> Value.bool_v b
  | Sexp.Atom_char c -> Value.char_v c
  | Sexp.Atom_sym s -> Value.sym (intern cs s)
  | Sexp.Atom_float f -> Value.flonum cs.gc f
  | Sexp.Atom_string s -> Value.string_v cs.gc s
  | Sexp.List items ->
      (* Build back-to-front; every intermediate is reachable from the
         accumulator, which we keep registered as a constant to survive a
         collection triggered mid-construction. *)
      let slot = add_constant cs Value.nil in
      List.iter
        (fun item ->
          let v = compile_quote cs item in
          cs.constants.(slot) <- Value.cons cs.gc v cs.constants.(slot))
        (List.rev items);
      cs.constants.(slot)
  | Sexp.Dotted (items, tail) ->
      let slot = add_constant cs (compile_quote cs tail) in
      List.iter
        (fun item ->
          let v = compile_quote cs item in
          cs.constants.(slot) <- Value.cons cs.gc v cs.constants.(slot))
        (List.rev items);
      cs.constants.(slot)

let rec compile_expr cs (cenv : cenv) e (x : Sexp.t) ~tail =
  match x with
  | Sexp.Atom_int n -> ignore (emit e (Imm (Value.fixnum n)))
  | Sexp.Atom_bool b -> ignore (emit e (Imm (Value.bool_v b)))
  | Sexp.Atom_char c -> ignore (emit e (Imm (Value.char_v c)))
  | Sexp.Atom_float f -> ignore (emit e (Const (add_constant cs (Value.flonum cs.gc f))))
  | Sexp.Atom_string s -> ignore (emit e (Const (add_constant cs (Value.string_v cs.gc s))))
  | Sexp.Atom_sym name -> compile_var cs cenv e name
  | Sexp.List [] -> fail "empty application"
  | Sexp.Dotted _ -> fail "dotted pair outside quote"
  | Sexp.List (Sexp.Atom_sym form :: _) when List.mem form special_forms ->
      compile_special cs cenv e x ~tail
  | Sexp.List (fn :: args) -> compile_apply cs cenv e fn args ~tail

and compile_var cs cenv e name =
  match lookup cenv name with
  | Some (d, i) -> ignore (emit e (Lref (d, i)))
  | None -> (
      match find_global cs name with
      | Some slot -> ignore (emit e (Gref slot))
      | None -> (
          match prim_of_name name with
          | Some (_, Some arity) ->
              (* Eta-expand a fixed-arity primitive used as a value. *)
              let params = List.init arity (fun i -> Printf.sprintf "x%d" i) in
              let body = slist (sym name :: List.map sym params) in
              let lam = slist [ sym "lambda"; slist (List.map sym params); body ] in
              compile_expr cs cenv e lam ~tail:false
          | Some (p, None) ->
              (* Variadic primitive as a value: a synthetic closure whose
                 body accepts whatever argument count the caller passes. *)
              let idx =
                add_code cs
                  {
                    c_name = name;
                    c_arity = -1;
                    c_frame_size = 0;
                    c_level = -1;
                    c_instrs = [| PrimVarargs p; Ret |];
                    c_jitted = true;
                    c_no_capture = 1;
                  }
              in
              ignore (emit e (MkClosure idx))
          | None ->
              (* Forward reference to a global defined later. *)
              ignore (emit e (Gref (global_slot cs name)))))

and compile_seq cs cenv e body ~tail =
  match body with
  | [] -> ignore (emit e (Imm Value.vvoid))
  | [ last ] -> compile_expr cs cenv e last ~tail
  | x :: rest ->
      compile_expr cs cenv e x ~tail:false;
      ignore (emit e Pop);
      compile_seq cs cenv e rest ~tail

and compile_lambda cs cenv ~name params body =
  let params =
    List.map
      (function Sexp.Atom_sym s -> s | _ -> fail "lambda: bad parameter list")
      params
  in
  let defs, rest = split_internal_defines body in
  let frame_names = params @ List.map fst defs in
  let cenv' = frame_names :: cenv in
  let e = new_emitter () in
  (* letrec* prologue for internal defines *)
  List.iter
    (fun (dname, dexpr) ->
      compile_expr cs cenv' e dexpr ~tail:false;
      match lookup cenv' dname with
      | Some (0, i) -> ignore (emit e (Lset (0, i)))
      | _ -> assert false)
    defs;
  compile_seq cs cenv' e rest ~tail:true;
  ignore (emit e Ret);
  add_code cs
    {
      c_name = name;
      c_arity = List.length params;
      c_frame_size = List.length frame_names;
      c_level = List.length cenv;
      c_instrs = finish e;
      c_jitted = false;
      c_no_capture = -1;
    }

and compile_apply cs cenv e fn args ~tail =
  let direct_prim =
    match fn with
    | Sexp.Atom_sym name when lookup cenv name = None && find_global cs name = None ->
        prim_of_name name
    | _ -> None
  in
  match direct_prim with
  | Some (p, arity) ->
      let argc = List.length args in
      (match arity with
      | Some a when a <> argc ->
          fail "primitive %s expects %d arguments, got %d" (Sexp.to_string fn) a argc
      | _ -> ());
      List.iter (fun a -> compile_expr cs cenv e a ~tail:false) args;
      ignore (emit e (Prim (p, argc)))
  | None ->
      compile_expr cs cenv e fn ~tail:false;
      List.iter (fun a -> compile_expr cs cenv e a ~tail:false) args;
      ignore (emit e (if tail then TailCall (List.length args) else Call (List.length args)))

and compile_special cs cenv e x ~tail =
  match x with
  | Sexp.List [ Sexp.Atom_sym "quote"; d ] -> (
      match d with
      | Sexp.Atom_int n -> ignore (emit e (Imm (Value.fixnum n)))
      | Sexp.Atom_bool b -> ignore (emit e (Imm (Value.bool_v b)))
      | Sexp.Atom_char c -> ignore (emit e (Imm (Value.char_v c)))
      | Sexp.Atom_sym s -> ignore (emit e (Imm (Value.sym (intern cs s))))
      | _ -> ignore (emit e (Const (add_constant cs (compile_quote cs d)))))
  | Sexp.List (Sexp.Atom_sym "if" :: cond :: branches) -> (
      compile_expr cs cenv e cond ~tail:false;
      let jif_pos = emit e (Jif 0) in
      match branches with
      | [ then_e ] ->
          compile_expr cs cenv e then_e ~tail;
          let jmp_pos = emit e (Jmp 0) in
          patch e jif_pos (Jif (here e));
          ignore (emit e (Imm Value.vvoid));
          patch e jmp_pos (Jmp (here e))
      | [ then_e; else_e ] ->
          compile_expr cs cenv e then_e ~tail;
          let jmp_pos = emit e (Jmp 0) in
          patch e jif_pos (Jif (here e));
          compile_expr cs cenv e else_e ~tail;
          patch e jmp_pos (Jmp (here e))
      | _ -> fail "if: bad form")
  | Sexp.List (Sexp.Atom_sym "begin" :: body) -> compile_seq cs cenv e body ~tail
  | Sexp.List (Sexp.Atom_sym "lambda" :: Sexp.List params :: body) ->
      let idx = compile_lambda cs cenv ~name:"lambda" params body in
      ignore (emit e (MkClosure idx))
  | Sexp.List (Sexp.Atom_sym "named-lambda" :: Sexp.Atom_string name :: Sexp.List params :: body)
    ->
      let idx = compile_lambda cs cenv ~name params body in
      ignore (emit e (MkClosure idx))
  | Sexp.List [ Sexp.Atom_sym "set!"; Sexp.Atom_sym name; expr ] -> (
      compile_expr cs cenv e expr ~tail:false;
      match lookup cenv name with
      | Some (d, i) ->
          ignore (emit e (Lset (d, i)));
          ignore (emit e (Imm Value.vvoid))
      | None ->
          ignore (emit e (Gset (global_slot cs name)));
          ignore (emit e (Imm Value.vvoid)))
  | Sexp.List (Sexp.Atom_sym "let" :: Sexp.List bindings :: body) ->
      (* Compiled natively (no closure): evaluate the inits onto the stack
         and pop them into a fresh frame for the body.  Keeps loop bodies
         free of MkClosure so the self-tail-call fast path applies. *)
      let vars, inits =
        List.split
          (List.map
             (function
               | Sexp.List [ Sexp.Atom_sym v; init ] -> (v, init)
               | b -> fail "let: bad binding %s" (Sexp.to_string b))
             bindings)
      in
      List.iter (fun init -> compile_expr cs cenv e init ~tail:false) inits;
      ignore (emit e (PushFrame (List.length vars)));
      let cenv' = vars :: cenv in
      compile_seq cs cenv' e body ~tail;
      if not tail then ignore (emit e PopFrame)
  | Sexp.List (Sexp.Atom_sym "let" :: (Sexp.Atom_sym _ as loop) :: Sexp.List bindings :: body)
    ->
      (* named let -> letrec *)
      let vars, inits =
        List.split
          (List.map
             (function
               | Sexp.List [ (Sexp.Atom_sym _ as v); init ] -> (v, init)
               | b -> fail "named let: bad binding %s" (Sexp.to_string b))
             bindings)
      in
      let lam = slist (sym "lambda" :: slist vars :: body) in
      let expansion =
        slist
          [ sym "letrec"; slist [ slist [ loop; lam ] ]; slist (loop :: inits) ]
      in
      compile_expr cs cenv e expansion ~tail
  | Sexp.List (Sexp.Atom_sym "let*" :: Sexp.List bindings :: body) -> (
      match bindings with
      | [] -> compile_expr cs cenv e (slist (sym "let" :: slist [] :: body)) ~tail
      | first :: rest ->
          let inner = slist (sym "let*" :: slist rest :: body) in
          compile_expr cs cenv e (slist [ sym "let"; slist [ first ]; inner ]) ~tail)
  | Sexp.List (Sexp.Atom_sym ("letrec" | "letrec*") :: Sexp.List bindings :: body) ->
      (* ((lambda (vars) (set! var init)... body) undef...) via internal
         defines, which compile_lambda already implements. *)
      let defs =
        List.map
          (function
            | Sexp.List [ (Sexp.Atom_sym _ as v); init ] ->
                slist [ sym "define"; v; init ]
            | b -> fail "letrec: bad binding %s" (Sexp.to_string b))
          bindings
      in
      let lam = slist (sym "lambda" :: slist [] :: (defs @ body)) in
      compile_apply cs cenv e lam [] ~tail
  | Sexp.List (Sexp.Atom_sym "and" :: args) -> (
      match args with
      | [] -> ignore (emit e (Imm Value.vtrue))
      | [ last ] -> compile_expr cs cenv e last ~tail
      | first :: rest ->
          let expansion =
            slist [ sym "if"; first; slist (sym "and" :: rest); Sexp.Atom_bool false ]
          in
          compile_expr cs cenv e expansion ~tail)
  | Sexp.List (Sexp.Atom_sym "or" :: args) -> (
      match args with
      | [] -> ignore (emit e (Imm Value.vfalse))
      | [ last ] -> compile_expr cs cenv e last ~tail
      | first :: rest ->
          let t = gensym cs "or" in
          let expansion =
            slist
              [ sym "let";
                slist [ slist [ sym t; first ] ];
                slist [ sym "if"; sym t; sym t; slist (sym "or" :: rest) ];
              ]
          in
          compile_expr cs cenv e expansion ~tail)
  | Sexp.List (Sexp.Atom_sym "when" :: cond :: body) ->
      compile_expr cs cenv e
        (slist [ sym "if"; cond; slist (sym "begin" :: body) ])
        ~tail
  | Sexp.List (Sexp.Atom_sym "unless" :: cond :: body) ->
      compile_expr cs cenv e
        (slist [ sym "if"; slist [ sym "not"; cond ]; slist (sym "begin" :: body) ])
        ~tail
  | Sexp.List (Sexp.Atom_sym "cond" :: clauses) ->
      let rec expand = function
        | [] -> slist [ sym "void" ]
        | Sexp.List (Sexp.Atom_sym "else" :: body) :: _ -> slist (sym "begin" :: body)
        | Sexp.List [ cond ] :: rest -> slist [ sym "or"; cond; expand rest ]
        | Sexp.List (cond :: body) :: rest ->
            slist [ sym "if"; cond; slist (sym "begin" :: body); expand rest ]
        | c :: _ -> fail "cond: bad clause %s" (Sexp.to_string c)
      in
      compile_expr cs cenv e (expand clauses) ~tail
  | Sexp.List (Sexp.Atom_sym "case" :: key :: clauses) ->
      let t = gensym cs "case" in
      let rec expand = function
        | [] -> slist [ sym "void" ]
        | Sexp.List (Sexp.Atom_sym "else" :: body) :: _ -> slist (sym "begin" :: body)
        | Sexp.List (Sexp.List datums :: body) :: rest ->
            slist
              [ sym "if";
                slist [ sym "member"; sym t; slist [ sym "quote"; slist datums ] ];
                slist (sym "begin" :: body);
                expand rest;
              ]
        | c :: _ -> fail "case: bad clause %s" (Sexp.to_string c)
      in
      let expansion =
        slist [ sym "let"; slist [ slist [ sym t; key ] ]; expand clauses ]
      in
      compile_expr cs cenv e expansion ~tail
  | Sexp.List (Sexp.Atom_sym "do" :: Sexp.List specs :: Sexp.List (test :: result) :: body)
    ->
      (* (do ((v init step)...) (test result...) body...) *)
      let loop = gensym cs "do" in
      let vars, inits, steps =
        List.fold_right
          (fun spec (vs, is, ss) ->
            match spec with
            | Sexp.List [ (Sexp.Atom_sym _ as v); init; step ] ->
                (v :: vs, init :: is, step :: ss)
            | Sexp.List [ (Sexp.Atom_sym _ as v); init ] ->
                (v :: vs, init :: is, v :: ss)
            | s -> fail "do: bad spec %s" (Sexp.to_string s))
          specs ([], [], [])
      in
      let result_body =
        match result with [] -> [ slist [ sym "void" ] ] | r -> r
      in
      let expansion =
        slist
          [ sym "let"; sym loop;
            slist (List.map2 (fun v i -> slist [ v; i ]) vars inits);
            slist
              [ sym "if"; test;
                slist (sym "begin" :: result_body);
                slist
                  (sym "begin"
                  :: (body @ [ slist (sym loop :: steps) ]));
              ];
          ]
      in
      compile_expr cs cenv e expansion ~tail
  | Sexp.List (Sexp.Atom_sym "define" :: _) ->
      fail "define only allowed at top level or at the head of a body"
  | _ -> fail "bad special form: %s" (Sexp.to_string x)

(* --- top level --- *)

let compile_toplevel_form cs cenv e (x : Sexp.t) =
  match x with
  | Sexp.List (Sexp.Atom_sym "define" :: Sexp.List (Sexp.Atom_sym name :: params) :: body)
    ->
      let idx = compile_lambda cs cenv ~name params body in
      ignore (emit e (MkClosure idx));
      ignore (emit e (Gset (global_slot cs name)));
      ignore (emit e (Imm Value.vvoid))
  | Sexp.List [ Sexp.Atom_sym "define"; Sexp.Atom_sym name; expr ] ->
      compile_expr cs cenv e expr ~tail:false;
      ignore (emit e (Gset (global_slot cs name)));
      ignore (emit e (Imm Value.vvoid))
  | _ -> compile_expr cs cenv e x ~tail:false

let compile_toplevel cs forms =
  let e = new_emitter () in
  let rec go = function
    | [] -> ignore (emit e (Imm Value.vvoid))
    | [ last ] -> compile_toplevel_form cs [] e last
    | x :: rest ->
        compile_toplevel_form cs [] e x;
        ignore (emit e Pop);
        go rest
  in
  go forms;
  ignore (emit e Ret);
  add_code cs
    { c_name = "toplevel"; c_arity = 0; c_frame_size = 0; c_level = -1; c_instrs = finish e;
      c_jitted = false; c_no_capture = -1 }
