type value =
  | V_int of int array
  | V_float of float array
  | V_bool of bool array

exception Vcode_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Vcode_error s)) fmt

type ty = T_int | T_float | T_bool

type binop = Add | Sub | Mul | Div | Min | Max | Lt | Le | Gt | Ge | Eq | And | Or

type redop = R_plus | R_max | R_min

type instr =
  | I_const of value
  | I_iota
  | I_dist
  | I_copy
  | I_pop
  | I_swap
  | I_length
  | I_extract
  | I_replace
  | I_permute
  | I_pack
  | I_select
  | I_not
  | I_itof
  | I_ftoi
  | I_binop of binop * ty
  | I_scan of redop * ty
  | I_reduce of redop * ty
  | I_seg_reduce of redop * ty
  | I_call of string
  | I_ret
  | I_jif of int  (* pop a bool singleton; jump when false *)
  | I_jmp of int

type program = {
  instrs : instr array;
  funcs : (string, int) Hashtbl.t;  (* name -> entry pc *)
}

(* --- parser --- *)

let strip_comment line =
  match String.index_opt line ';' with
  | Some i -> String.sub line 0 i
  | None -> line

let ty_of = function
  | "INT" -> T_int
  | "FLOAT" -> T_float
  | "BOOL" -> T_bool
  | s -> err "unknown type %s" s

let parse text =
  let tokens_of_line line =
    String.split_on_char ' ' (String.trim (strip_comment line))
    |> List.filter (( <> ) "")
  in
  let lines =
    String.split_on_char '\n' text |> List.map tokens_of_line |> List.filter (( <> ) [])
  in
  let instrs = ref [] in
  let n = ref 0 in
  let emit i =
    instrs := i :: !instrs;
    incr n;
    !n - 1
  in
  let funcs = Hashtbl.create 8 in
  let patches = ref [] in  (* (pos, fixup) resolved after the pass *)
  let if_stack = ref [] in
  List.iter
    (fun tokens ->
      match tokens with
      | [ "FUNC"; name ] ->
          if Hashtbl.mem funcs name then err "duplicate FUNC %s" name;
          Hashtbl.replace funcs name !n
      | [ "CONST"; "INT"; v ] -> (
          match int_of_string_opt v with
          | Some k -> ignore (emit (I_const (V_int [| k |])))
          | None -> err "bad INT constant %s" v)
      | [ "CONST"; "FLOAT"; v ] -> (
          match float_of_string_opt v with
          | Some f -> ignore (emit (I_const (V_float [| f |])))
          | None -> err "bad FLOAT constant %s" v)
      | [ "CONST"; "BOOL"; v ] ->
          ignore (emit (I_const (V_bool [| v = "T" || v = "#t" |])))
      | [ "IOTA" ] -> ignore (emit I_iota)
      | [ "DIST" ] -> ignore (emit I_dist)
      | [ "COPY" ] -> ignore (emit I_copy)
      | [ "POP" ] -> ignore (emit I_pop)
      | [ "SWAP" ] -> ignore (emit I_swap)
      | [ "LENGTH" ] -> ignore (emit I_length)
      | [ "EXTRACT" ] -> ignore (emit I_extract)
      | [ "REPLACE" ] -> ignore (emit I_replace)
      | [ "PERMUTE" ] -> ignore (emit I_permute)
      | [ "PACK" ] -> ignore (emit I_pack)
      | [ "SELECT" ] -> ignore (emit I_select)
      | [ "NOT" ] -> ignore (emit I_not)
      | [ "INT->FLOAT" ] -> ignore (emit I_itof)
      | [ "FLOAT->INT" ] -> ignore (emit I_ftoi)
      | [ op; tyname ]
        when List.mem op [ "+"; "-"; "*"; "/"; "MIN"; "MAX"; "<"; "<="; ">"; ">="; "="; "AND"; "OR" ]
        ->
          let ty = ty_of tyname in
          let bop =
            match op with
            | "+" -> Add | "-" -> Sub | "*" -> Mul | "/" -> Div
            | "MIN" -> Min | "MAX" -> Max
            | "<" -> Lt | "<=" -> Le | ">" -> Gt | ">=" -> Ge | "=" -> Eq
            | "AND" -> And | "OR" -> Or
            | _ -> assert false
          in
          ignore (emit (I_binop (bop, ty)))
      | [ op; tyname ] when List.mem op [ "+_SCAN"; "MAX_SCAN"; "MIN_SCAN" ] ->
          let r = match op with "+_SCAN" -> R_plus | "MAX_SCAN" -> R_max | _ -> R_min in
          ignore (emit (I_scan (r, ty_of tyname)))
      | [ op; tyname ] when List.mem op [ "+_REDUCE"; "MAX_REDUCE"; "MIN_REDUCE" ] ->
          let r =
            match op with "+_REDUCE" -> R_plus | "MAX_REDUCE" -> R_max | _ -> R_min
          in
          ignore (emit (I_reduce (r, ty_of tyname)))
      | [ op; tyname ] when List.mem op [ "+_REDUCE_SEG"; "MAX_REDUCE_SEG"; "MIN_REDUCE_SEG" ] ->
          let r =
            match op with
            | "+_REDUCE_SEG" -> R_plus
            | "MAX_REDUCE_SEG" -> R_max
            | _ -> R_min
          in
          ignore (emit (I_seg_reduce (r, ty_of tyname)))
      | [ "CALL"; name ] -> ignore (emit (I_call name))
      | [ "RET" ] -> ignore (emit I_ret)
      | [ "IF" ] ->
          let pos = emit (I_jif (-1)) in
          if_stack := `If pos :: !if_stack
      | [ "ELSE" ] -> (
          match !if_stack with
          | `If jif_pos :: rest ->
              let jmp_pos = emit (I_jmp (-1)) in
              patches := (jif_pos, `Target (!n)) :: !patches;
              if_stack := `Else jmp_pos :: rest
          | _ -> err "ELSE without IF")
      | [ "ENDIF" ] -> (
          match !if_stack with
          | `If jif_pos :: rest ->
              patches := (jif_pos, `Target !n) :: !patches;
              if_stack := rest
          | `Else jmp_pos :: rest ->
              patches := (jmp_pos, `Target !n) :: !patches;
              if_stack := rest
          | [] -> err "ENDIF without IF")
      | toks -> err "unknown instruction: %s" (String.concat " " toks))
    lines;
  if !if_stack <> [] then err "unterminated IF";
  let arr = Array.of_list (List.rev !instrs) in
  List.iter
    (fun (pos, `Target target) ->
      arr.(pos) <-
        (match arr.(pos) with
        | I_jif _ -> I_jif target
        | I_jmp _ -> I_jmp target
        | _ -> assert false))
    !patches;
  if not (Hashtbl.mem funcs "main") then err "no FUNC main";
  (* Validate CALL targets eagerly. *)
  Array.iter
    (function
      | I_call name when not (Hashtbl.mem funcs name) -> err "CALL to unknown FUNC %s" name
      | _ -> ())
    arr;
  { instrs = arr; funcs }

(* --- interpreter --- *)

type t = {
  pool : Mv_parallel.Pool.t option;
  charge : int -> unit;
  mutable n_elems : int;
}

let create ?pool ~charge () = { pool; charge; n_elems = 0 }

let elements_processed t = t.n_elems

let cycles_per_elem = 4
let parallel_threshold = 64

(* Run [f i] over [0, len): a parallel region when a pool is attached and
   the vector is long enough — how the HRT-resident VCODE ran its vector
   ops. *)
let foreach t len f =
  t.n_elems <- t.n_elems + len;
  match t.pool with
  | Some pool when len >= parallel_threshold ->
      Mv_parallel.Pool.parallel_for pool ~lo:0 ~hi:len (fun i ->
          Mv_parallel.Pool.charge pool cycles_per_elem;
          f i)
  | _ ->
      t.charge (len * cycles_per_elem);
      for i = 0 to len - 1 do
        f i
      done

let length_of = function
  | V_int a -> Array.length a
  | V_float a -> Array.length a
  | V_bool a -> Array.length a

let int_vec a = V_int a
let float_vec a = V_float a

let to_int_array = function
  | V_int a -> a
  | v -> err "expected an INT vector, got length-%d other" (length_of v)

let to_float_array = function
  | V_float a -> a
  | v -> err "expected a FLOAT vector, got length-%d other" (length_of v)

let to_bool_array = function
  | V_bool a -> a
  | v -> err "expected a BOOL vector, got length-%d other" (length_of v)

let singleton_int = function
  | V_int [| k |] -> k
  | v -> err "expected an INT singleton, got length %d" (length_of v)

let pp_value ppf v =
  let p fmt arr pp_elem =
    Format.fprintf ppf "[%s]"
      (String.concat " " (Array.to_list (Array.map pp_elem arr)));
    ignore fmt
  in
  match v with
  | V_int a -> p "%d" a string_of_int
  | V_float a -> p "%g" a (Printf.sprintf "%g")
  | V_bool a -> p "%b" a (fun b -> if b then "T" else "F")

(* elementwise binop on same-length vectors *)
let binop t op ty a b =
  let la = length_of a and lb = length_of b in
  if la <> lb then err "elementwise op on lengths %d vs %d" la lb;
  let bool_out f =
    let out = Array.make la false in
    (out, V_bool out) |> fun (o, v) ->
    f o;
    v
  in
  match (ty, a, b) with
  | T_int, V_int x, V_int y -> (
      match op with
      | Lt | Le | Gt | Ge | Eq ->
          bool_out (fun o ->
              foreach t la (fun i ->
                  o.(i) <-
                    (match op with
                    | Lt -> x.(i) < y.(i)
                    | Le -> x.(i) <= y.(i)
                    | Gt -> x.(i) > y.(i)
                    | Ge -> x.(i) >= y.(i)
                    | _ -> x.(i) = y.(i))))
      | _ ->
          let o = Array.make la 0 in
          foreach t la (fun i ->
              o.(i) <-
                (match op with
                | Add -> x.(i) + y.(i)
                | Sub -> x.(i) - y.(i)
                | Mul -> x.(i) * y.(i)
                | Div -> if y.(i) = 0 then err "division by zero" else x.(i) / y.(i)
                | Min -> min x.(i) y.(i)
                | Max -> max x.(i) y.(i)
                | _ -> err "bad INT op"));
          V_int o)
  | T_float, V_float x, V_float y -> (
      match op with
      | Lt | Le | Gt | Ge | Eq ->
          bool_out (fun o ->
              foreach t la (fun i ->
                  o.(i) <-
                    (match op with
                    | Lt -> x.(i) < y.(i)
                    | Le -> x.(i) <= y.(i)
                    | Gt -> x.(i) > y.(i)
                    | Ge -> x.(i) >= y.(i)
                    | _ -> x.(i) = y.(i))))
      | _ ->
          let o = Array.make la 0.0 in
          foreach t la (fun i ->
              o.(i) <-
                (match op with
                | Add -> x.(i) +. y.(i)
                | Sub -> x.(i) -. y.(i)
                | Mul -> x.(i) *. y.(i)
                | Div -> x.(i) /. y.(i)
                | Min -> Float.min x.(i) y.(i)
                | Max -> Float.max x.(i) y.(i)
                | _ -> err "bad FLOAT op"));
          V_float o)
  | T_bool, V_bool x, V_bool y ->
      bool_out (fun o ->
          foreach t la (fun i ->
              o.(i) <-
                (match op with
                | And -> x.(i) && y.(i)
                | Or -> x.(i) || y.(i)
                | Eq -> x.(i) = y.(i)
                | _ -> err "bad BOOL op")))
  | _ -> err "operand type mismatch"

let scan t rop ty v =
  (* Exclusive scan, as VCODE defines it. *)
  let n = length_of v in
  t.n_elems <- t.n_elems + n;
  t.charge (n * (cycles_per_elem + 2));
  match (ty, v) with
  | T_int, V_int a ->
      let o = Array.make n 0 in
      let acc = ref (match rop with R_plus -> 0 | R_max -> min_int | R_min -> max_int) in
      for i = 0 to n - 1 do
        o.(i) <- !acc;
        acc :=
          (match rop with
          | R_plus -> !acc + a.(i)
          | R_max -> max !acc a.(i)
          | R_min -> min !acc a.(i))
      done;
      V_int o
  | T_float, V_float a ->
      let o = Array.make n 0.0 in
      let acc =
        ref (match rop with R_plus -> 0.0 | R_max -> neg_infinity | R_min -> infinity)
      in
      for i = 0 to n - 1 do
        o.(i) <- !acc;
        acc :=
          (match rop with
          | R_plus -> !acc +. a.(i)
          | R_max -> Float.max !acc a.(i)
          | R_min -> Float.min !acc a.(i))
      done;
      V_float o
  | _ -> err "scan type mismatch"

let reduce t rop ty v =
  let n = length_of v in
  t.n_elems <- t.n_elems + n;
  (match t.pool with
  | Some pool when n >= parallel_threshold -> (
      (* Chunked parallel reduction via the pool. *)
      match (ty, v) with
      | T_int, V_int a ->
          ignore
            (Mv_parallel.Pool.parallel_reduce pool ~lo:0 ~hi:n (fun i ->
                 Mv_parallel.Pool.charge pool cycles_per_elem;
                 float_of_int a.(i)))
      | T_float, V_float a ->
          ignore
            (Mv_parallel.Pool.parallel_reduce pool ~lo:0 ~hi:n (fun i ->
                 Mv_parallel.Pool.charge pool cycles_per_elem;
                 a.(i)))
      | _ -> ())
  | _ -> t.charge (n * cycles_per_elem));
  (* The numeric result is computed exactly (the pool pass above models
     cost; min/max/sum over floats must not depend on chunking). *)
  match (ty, v) with
  | T_int, V_int a ->
      let acc = ref (match rop with R_plus -> 0 | R_max -> min_int | R_min -> max_int) in
      Array.iter
        (fun x ->
          acc :=
            match rop with R_plus -> !acc + x | R_max -> max !acc x | R_min -> min !acc x)
        a;
      V_int [| !acc |]
  | T_float, V_float a ->
      let acc =
        ref (match rop with R_plus -> 0.0 | R_max -> neg_infinity | R_min -> infinity)
      in
      Array.iter
        (fun x ->
          acc :=
            match rop with
            | R_plus -> !acc +. x
            | R_max -> Float.max !acc x
            | R_min -> Float.min !acc x)
        a;
      V_float [| !acc |]
  | _ -> err "reduce type mismatch"

let seg_reduce t rop ty ~segs v =
  (* [segs] is the INT vector of segment lengths; one result per segment. *)
  let lens = to_int_array segs in
  let total = Array.fold_left ( + ) 0 lens in
  if total <> length_of v then
    err "segment descriptor covers %d elements, data has %d" total (length_of v);
  t.n_elems <- t.n_elems + total;
  t.charge (total * (cycles_per_elem + 1));
  let nseg = Array.length lens in
  match (ty, v) with
  | T_int, V_int a ->
      let o = Array.make nseg 0 in
      let pos = ref 0 in
      for s = 0 to nseg - 1 do
        let acc = ref (match rop with R_plus -> 0 | R_max -> min_int | R_min -> max_int) in
        for _ = 1 to lens.(s) do
          let x = a.(!pos) in
          incr pos;
          acc :=
            (match rop with R_plus -> !acc + x | R_max -> max !acc x | R_min -> min !acc x)
        done;
        o.(s) <- !acc
      done;
      V_int o
  | T_float, V_float a ->
      let o = Array.make nseg 0.0 in
      let pos = ref 0 in
      for s = 0 to nseg - 1 do
        let acc =
          ref (match rop with R_plus -> 0.0 | R_max -> neg_infinity | R_min -> infinity)
        in
        for _ = 1 to lens.(s) do
          let x = a.(!pos) in
          incr pos;
          acc :=
            (match rop with
            | R_plus -> !acc +. x
            | R_max -> Float.max !acc x
            | R_min -> Float.min !acc x)
        done;
        o.(s) <- !acc
      done;
      V_float o
  | _ -> err "segmented reduce type mismatch"

let max_call_depth = 10_000

let run t program ?(entry = "main") initial_stack =
  let stack = ref (List.rev initial_stack) in  (* top first *)
  let push v = stack := v :: !stack in
  let pop () =
    match !stack with
    | v :: rest ->
        stack := rest;
        v
    | [] -> err "stack underflow"
  in
  let rstack = ref [] in
  let pc =
    ref
      (match Hashtbl.find_opt program.funcs entry with
      | Some pc -> pc
      | None -> err "no FUNC %s" entry)
  in
  let running = ref true in
  while !running do
    if !pc >= Array.length program.instrs then err "fell off the end of the program";
    let instr = program.instrs.(!pc) in
    incr pc;
    t.charge 14;  (* dispatch *)
    match instr with
    | I_const v -> push v
    | I_iota ->
        let n = singleton_int (pop ()) in
        if n < 0 then err "IOTA of negative length";
        let o = Array.make n 0 in
        foreach t n (fun i -> o.(i) <- i);
        push (V_int o)
    | I_dist -> (
        let n = singleton_int (pop ()) in
        let v = pop () in
        if length_of v <> 1 then err "DIST of a non-singleton";
        match v with
        | V_int [| x |] -> push (V_int (Array.make n x))
        | V_float [| x |] -> push (V_float (Array.make n x))
        | V_bool [| x |] -> push (V_bool (Array.make n x))
        | _ -> assert false)
    | I_copy -> (
        match !stack with
        | v :: _ -> push v
        | [] -> err "COPY on empty stack")
    | I_pop -> ignore (pop ())
    | I_swap ->
        let a = pop () in
        let b = pop () in
        push a;
        push b
    | I_length -> push (V_int [| length_of (pop ()) |])
    | I_extract -> (
        let i = singleton_int (pop ()) in
        let v = pop () in
        if i < 0 || i >= length_of v then err "EXTRACT index %d out of range" i;
        match v with
        | V_int a -> push (V_int [| a.(i) |])
        | V_float a -> push (V_float [| a.(i) |])
        | V_bool a -> push (V_bool [| a.(i) |]))
    | I_replace -> (
        let x = pop () in
        let i = singleton_int (pop ()) in
        let v = pop () in
        if i < 0 || i >= length_of v then err "REPLACE index %d out of range" i;
        match (v, x) with
        | V_int a, V_int [| x |] ->
            let o = Array.copy a in
            o.(i) <- x;
            push (V_int o)
        | V_float a, V_float [| x |] ->
            let o = Array.copy a in
            o.(i) <- x;
            push (V_float o)
        | V_bool a, V_bool [| x |] ->
            let o = Array.copy a in
            o.(i) <- x;
            push (V_bool o)
        | _ -> err "REPLACE type mismatch")
    | I_permute -> (
        let idx = to_int_array (pop ()) in
        let v = pop () in
        let n = length_of v in
        if Array.length idx <> n then err "PERMUTE index length mismatch";
        Array.iter (fun i -> if i < 0 || i >= n then err "PERMUTE index out of range") idx;
        match v with
        | V_int a ->
            let o = Array.make n 0 in
            foreach t n (fun i -> o.(idx.(i)) <- a.(i));
            push (V_int o)
        | V_float a ->
            let o = Array.make n 0.0 in
            foreach t n (fun i -> o.(idx.(i)) <- a.(i));
            push (V_float o)
        | V_bool a ->
            let o = Array.make n false in
            foreach t n (fun i -> o.(idx.(i)) <- a.(i));
            push (V_bool o))
    | I_pack -> (
        let flags = to_bool_array (pop ()) in
        let v = pop () in
        let n = length_of v in
        if Array.length flags <> n then err "PACK flag length mismatch";
        t.n_elems <- t.n_elems + n;
        t.charge (n * cycles_per_elem);
        let keep = Array.to_list flags |> List.filter Fun.id |> List.length in
        let fill src mk =
          let o = Array.make keep (src 0) in
          let w = ref 0 in
          for i = 0 to n - 1 do
            if flags.(i) then begin
              o.(!w) <- src i;
              incr w
            end
          done;
          mk o
        in
        if keep = 0 then
          push (match v with V_int _ -> V_int [||] | V_float _ -> V_float [||] | V_bool _ -> V_bool [||])
        else
          match v with
          | V_int a -> push (fill (fun i -> a.(i)) (fun o -> V_int o))
          | V_float a -> push (fill (fun i -> a.(i)) (fun o -> V_float o))
          | V_bool a -> push (fill (fun i -> a.(i)) (fun o -> V_bool o)))
    | I_select -> (
        let flags = to_bool_array (pop ()) in
        let b = pop () in
        let a = pop () in
        let n = Array.length flags in
        if length_of a <> n || length_of b <> n then err "SELECT length mismatch";
        match (a, b) with
        | V_int x, V_int y ->
            let o = Array.make n 0 in
            foreach t n (fun i -> o.(i) <- (if flags.(i) then x.(i) else y.(i)));
            push (V_int o)
        | V_float x, V_float y ->
            let o = Array.make n 0.0 in
            foreach t n (fun i -> o.(i) <- (if flags.(i) then x.(i) else y.(i)));
            push (V_float o)
        | _ -> err "SELECT type mismatch")
    | I_not ->
        let a = to_bool_array (pop ()) in
        let n = Array.length a in
        let o = Array.make n false in
        foreach t n (fun i -> o.(i) <- not a.(i));
        push (V_bool o)
    | I_itof ->
        let a = to_int_array (pop ()) in
        let n = Array.length a in
        let o = Array.make n 0.0 in
        foreach t n (fun i -> o.(i) <- float_of_int a.(i));
        push (V_float o)
    | I_ftoi ->
        let a = to_float_array (pop ()) in
        let n = Array.length a in
        let o = Array.make n 0 in
        foreach t n (fun i -> o.(i) <- int_of_float a.(i));
        push (V_int o)
    | I_binop (op, ty) ->
        let b = pop () in
        let a = pop () in
        push (binop t op ty a b)
    | I_scan (rop, ty) -> push (scan t rop ty (pop ()))
    | I_reduce (rop, ty) -> push (reduce t rop ty (pop ()))
    | I_seg_reduce (rop, ty) ->
        let v = pop () in
        let segs = pop () in
        push (seg_reduce t rop ty ~segs v)
    | I_call name ->
        if List.length !rstack >= max_call_depth then err "call depth exceeded";
        rstack := !pc :: !rstack;
        pc := Hashtbl.find program.funcs name
    | I_ret -> (
        match !rstack with
        | ret :: rest ->
            rstack := rest;
            pc := ret
        | [] -> running := false)
    | I_jif target -> (
        match pop () with
        | V_bool [| true |] -> ()
        | V_bool [| false |] -> pc := target
        | v -> err "IF expects a BOOL singleton, got length %d" (length_of v))
    | I_jmp target -> pc := target
  done;
  List.rev !stack
