module Env = Mv_guest.Env
module Libc = Mv_guest.Libc
module V = Value
open Code

exception Scheme_error of string

type place_ops = {
  po_spawn : string -> int;
  po_send : int -> Places.msg -> unit;
  po_recv : int -> Places.msg;
  po_wait : int -> unit;
}

let err fmt = Printf.ksprintf (fun s -> raise (Scheme_error s)) fmt

(* An activation.  [f_disp] is its display: [f_disp.(l)] is the frame at
   lexical level [l] on [f_env]'s chain, for every [l <= f_level], so
   [f_disp.(f_level) = f_env] and a variable at any depth is one array
   load.  Entries above [f_level] are stale and never read. *)
type frame = {
  mutable f_code : int;
  mutable f_pc : int;
  mutable f_env : V.v;
  mutable f_level : int;  (* level of [f_env]; -1 when it is nil *)
  mutable f_disp : V.v array;
}

let disp_capacity = 8

let new_frame () =
  { f_code = 0; f_pc = 0; f_env = V.nil; f_level = -1; f_disp = Array.make disp_capacity V.nil }

(* A LIFO stack of recycled frames of one size. *)
type pool = { mutable frames_of_size : V.v array; mutable npooled : int }

type t = {
  cs : cstate;
  env : Env.t;
  libc : Libc.t;
  heap : Sgc.t;
  mutable globals : V.v array;
  mutable stack : int array;
  mutable sp : int;
  mutable frames : frame array;
  mutable fp : int;
  temps : int array;
  mutable ntemps : int;
  mutable n_instrs : int;
  mutable next_tick : int;  (* [n_instrs] at which [on_tick] next fires *)
  mutable on_tick : t -> unit;
  mutable on_jit : code -> unit;
  cycles_per_instr : int;
  (* Recycled activation frames for code that provably never captures its
     frame: models compiled code keeping such frames on the stack instead
     of allocating (without it, every call would be a GC allocation). *)
  mutable pools : pool array;  (* by frame size *)
  mutable pool_count : int;
  mutable place_ops : place_ops option;
  ports : (int, Libc.stream) Hashtbl.t;
  mutable next_port : int;
}

(* Instructions between two [on_tick]s, each charged as one batch. *)
let tick_period = 2048

let create env libc heap =
  let t =
    {
      cs = make_cstate heap;
      env;
      libc;
      heap;
      globals = Array.make 256 V.vundef;
      stack = Array.make 4096 V.vundef;
      sp = 0;
      frames = Array.init 256 (fun _ -> new_frame ());
      fp = -1;
      temps = Array.make 64 V.vundef;
      ntemps = 0;
      n_instrs = 0;
      next_tick = tick_period;
      on_tick = (fun _ -> ());
      on_jit = (fun _ -> ());
      cycles_per_instr = 9;
      pools = [||];
      pool_count = 0;
      place_ops = None;
      ports = Hashtbl.create 8;
      next_port = 2;  (* port 1 is stdout *)
    }
  in
  V.register_scannable heap;
  Sgc.set_roots heap (fun visit ->
      for i = 0 to t.sp - 1 do
        visit t.stack.(i)
      done;
      for i = 0 to t.fp do
        visit t.frames.(i).f_env
      done;
      for i = 0 to t.cs.nglobals - 1 do
        if i < Array.length t.globals then visit t.globals.(i)
      done;
      for i = 0 to t.cs.nconstants - 1 do
        visit t.cs.constants.(i)
      done;
      for i = 0 to t.ntemps - 1 do
        visit t.temps.(i)
      done;
      (* Pooled frames must stay live across collections. *)
      Array.iter
        (fun p ->
          for k = 0 to p.npooled - 1 do
            visit p.frames_of_size.(k)
          done)
        t.pools);
  t

let cstate t = t.cs
let gc t = t.heap
let set_on_tick t fn = t.on_tick <- fn
let set_on_jit t fn = t.on_jit <- fn
let set_place_ops t ops = t.place_ops <- Some ops
let instructions_executed t = t.n_instrs

(* --- stack --- *)

let grow_stack t =
  let a = Array.make (2 * Array.length t.stack) V.vundef in
  Array.blit t.stack 0 a 0 t.sp;
  t.stack <- a

let[@inline] push t v =
  if t.sp >= Array.length t.stack then grow_stack t;
  t.stack.(t.sp) <- v;
  t.sp <- t.sp + 1

let[@inline] pop t =
  t.sp <- t.sp - 1;
  t.stack.(t.sp)

let protect t v =
  t.temps.(t.ntemps) <- v;
  t.ntemps <- t.ntemps + 1

let clear_temps t = t.ntemps <- 0

(* Argument [i] of the [n] a primitive finds on top of the stack. *)
let[@inline] arg t n i = t.stack.(t.sp - n + i)

(* --- rendering --- *)

let rec render t ~quoted v =
  let gc = t.heap in
  if V.is_fixnum v then string_of_int (V.fixnum_val v)
  else if V.is_sym v then sym_name t.cs (V.sym_id v)
  else if V.is_char v then
    if quoted then (
      match V.char_val v with
      | ' ' -> "#\\space"
      | '\n' -> "#\\newline"
      | c -> Printf.sprintf "#\\%c" c)
    else String.make 1 (V.char_val v)
  else if v = V.nil then "()"
  else if v = V.vtrue then "#t"
  else if v = V.vfalse then "#f"
  else if v = V.vvoid then ""
  else if v = V.veof then "#<eof>"
  else if v = V.vundef then "#<undefined>"
  else if V.is_port v then "#<port>"
  else if V.is_pair gc v then begin
    let buf = Buffer.create 32 in
    Buffer.add_char buf '(';
    let rec go first v =
      if v = V.nil then ()
      else if V.is_pair gc v then begin
        if not first then Buffer.add_char buf ' ';
        Buffer.add_string buf (render t ~quoted (V.car gc v));
        go false (V.cdr gc v)
      end
      else begin
        Buffer.add_string buf " . ";
        Buffer.add_string buf (render t ~quoted v)
      end
    in
    go true v;
    Buffer.add_char buf ')';
    Buffer.contents buf
  end
  else if V.is_string gc v then
    if quoted then Printf.sprintf "%S" (V.string_val gc v) else V.string_val gc v
  else if V.is_flonum gc v then begin
    let f = V.flonum_val gc v in
    if Float.is_integer f && Float.abs f < 1e18 then Printf.sprintf "%.1f" f
    else Printf.sprintf "%.12g" f
  end
  else if V.is_vector gc v then begin
    let n = V.vector_length gc v in
    let buf = Buffer.create 32 in
    Buffer.add_string buf "#(";
    for i = 0 to n - 1 do
      if i > 0 then Buffer.add_char buf ' ';
      Buffer.add_string buf (render t ~quoted (V.vector_ref gc v i))
    done;
    Buffer.add_char buf ')';
    Buffer.contents buf
  end
  else if V.is_closure gc v then "#<procedure>"
  else if V.is_box gc v then "#&" ^ render t ~quoted (V.unbox gc v)
  else "#<unknown>"

let display_string t v = render t ~quoted:false v
let write_string_of t v = render t ~quoted:true v

(* --- numeric helpers --- *)

let is_number t v = V.is_fixnum v || V.is_flonum t.heap v

let float_val t v =
  if V.is_fixnum v then float_of_int (V.fixnum_val v)
  else if V.is_flonum t.heap v then V.flonum_val t.heap v
  else err "expected a number, got %s" (display_string t v)

let num2 t name a b ~fix ~flo =
  if V.is_fixnum a && V.is_fixnum b then fix (V.fixnum_val a) (V.fixnum_val b)
  else if is_number t a && is_number t b then flo t (float_val t a) (float_val t b)
  else err "%s: expected numbers, got %s and %s" name (display_string t a) (display_string t b)

let fixr n = V.fixnum n
let flor t f = V.flonum t.heap f

(* The numeric primitives fold over their [n] arguments where they sit on
   the stack, left to right, building no list. *)
let arith_fold t name n ~id ~fix ~flo =
  if n = 0 then fixr id
  else if n = 1 && name = "-" then
    let x = arg t 1 0 in
    if V.is_fixnum x then fixr (-V.fixnum_val x) else flor t (-.float_val t x)
  else if n = 1 && name = "/" then
    let x = arg t 1 0 in
    if V.is_fixnum x && V.fixnum_val x = 1 then fixr 1 else flor t (1.0 /. float_val t x)
  else begin
    let acc = ref (arg t n 0) in
    for i = 1 to n - 1 do
      acc := num2 t name !acc (arg t n i) ~fix ~flo
    done;
    !acc
  end

let rec chain_holds t n i ~fix ~flo =
  i + 1 >= n
  ||
  let a = arg t n i and b = arg t n (i + 1) in
  (if V.is_fixnum a && V.is_fixnum b then fix (V.fixnum_val a) (V.fixnum_val b)
   else flo (float_val t a) (float_val t b))
  && chain_holds t n (i + 1) ~fix ~flo

let compare_chain t n ~fix ~flo = V.bool_v (chain_holds t n 0 ~fix ~flo)

(* --- primitive execution ---

   Arguments stay on the stack while the primitive runs (so they remain
   GC roots across any allocation); [finish] pops them and pushes the
   result. *)

let args t n = List.init n (arg t n)

let[@inline] finish t n v =
  t.sp <- t.sp - n;
  push t v;
  clear_temps t

let expect t name what ok v =
  if not ok then err "%s: expected %s, got %s" name what (display_string t v)

let int_arg t n name i =
  let v = arg t n i in
  expect t name "integer" (V.is_fixnum v) v;
  V.fixnum_val v

let string_arg t n name i =
  let v = arg t n i in
  expect t name "string" (V.is_string t.heap v) v;
  v

let char_arg t n name i =
  let v = arg t n i in
  expect t name "char" (V.is_char v) v;
  V.char_val v

(* The elements of [lst], a Scheme error naming [name] and [lst] unless it
   is a proper list. *)
let list_arg t name lst =
  let gc = t.heap in
  let rec go acc v =
    if v = V.nil then List.rev acc
    else begin
      expect t name "list" (V.is_pair gc v) lst;
      go (V.car gc v :: acc) (V.cdr gc v)
    end
  in
  go [] lst

(* Argument 1 as an index into argument 0, already checked to be a string. *)
let string_index t n name =
  let i = int_arg t n name 1 in
  if i < 0 || i >= V.string_length t.heap (arg t n 0) then err "%s: index %d out of range" name i;
  i

(* [p] on two fixnums, as [arith_fold] and [compare_chain] compute it,
   without their closure calls: the common case of compiled arithmetic,
   which the dispatch loop computes in place. *)
let[@inline] fix2 p a b =
  match p with
  | Padd -> fixr (a + b)
  | Psub -> fixr (a - b)
  | Pmul -> fixr (a * b)
  | Plt -> V.bool_v (a < b)
  | Pgt -> V.bool_v (a > b)
  | Ple -> V.bool_v (a <= b)
  | Pge -> V.bool_v (a >= b)
  | Pnumeq -> V.bool_v (a = b)
  | _ -> assert false

let exec_prim t p n =
  let gc = t.heap in
  match p with
  (* numbers *)
  | Padd ->
      finish t n
        (arith_fold t "+" n ~id:0 ~fix:(fun a b -> fixr (a + b))
           ~flo:(fun t a b -> flor t (a +. b)))
  | Psub ->
      if n = 0 then err "-: needs at least one argument"
      else
        finish t n
          (arith_fold t "-" n ~id:0 ~fix:(fun a b -> fixr (a - b))
             ~flo:(fun t a b -> flor t (a -. b)))
  | Pmul ->
      finish t n
        (arith_fold t "*" n ~id:1 ~fix:(fun a b -> fixr (a * b))
           ~flo:(fun t a b -> flor t (a *. b)))
  | Pdiv ->
      if n = 0 then err "/: needs at least one argument"
      else
        finish t n
          (arith_fold t "/" n ~id:1
             ~fix:(fun a b ->
               if b = 0 then err "/: division by zero"
               else if a mod b = 0 then fixr (a / b)
               else flor t (float_of_int a /. float_of_int b))
             ~flo:(fun t a b -> flor t (a /. b)))
  | Pquotient ->
      let a = int_arg t n "quotient" 0 and b = int_arg t n "quotient" 1 in
      if b = 0 then err "quotient: division by zero" else finish t n (fixr (a / b))
  | Premainder ->
      let a = int_arg t n "remainder" 0 and b = int_arg t n "remainder" 1 in
      if b = 0 then err "remainder: division by zero" else finish t n (fixr (a mod b))
  | Pmodulo ->
      let a = int_arg t n "modulo" 0 and b = int_arg t n "modulo" 1 in
      if b = 0 then err "modulo: division by zero"
      else finish t n (fixr (((a mod b) + b) mod b))
  | Pabs ->
      let v = arg t n 0 in
      finish t n
        (if V.is_fixnum v then fixr (abs (V.fixnum_val v))
         else flor t (Float.abs (float_val t v)))
  | Pmin ->
      finish t n
        (arith_fold t "min" n ~id:0 ~fix:(fun a b -> fixr (Int.min a b))
           ~flo:(fun t a b -> flor t (Float.min a b)))
  | Pmax ->
      finish t n
        (arith_fold t "max" n ~id:0 ~fix:(fun a b -> fixr (Int.max a b))
           ~flo:(fun t a b -> flor t (Float.max a b)))
  | Pexpt ->
      let b = arg t n 0 and e = arg t n 1 in
      if V.is_fixnum b && V.is_fixnum e && V.fixnum_val e >= 0 then begin
        let rec ipow acc b e = if e = 0 then acc else ipow (acc * b) b (e - 1) in
        finish t n (fixr (ipow 1 (V.fixnum_val b) (V.fixnum_val e)))
      end
      else finish t n (flor t (Float.pow (float_val t b) (float_val t e)))
  | Psqrt ->
      let f = float_val t (arg t n 0) in
      let r = sqrt f in
      if V.is_fixnum (arg t n 0) && Float.is_integer r then finish t n (fixr (int_of_float r))
      else finish t n (flor t r)
  | Pfloor ->
      let v = arg t n 0 in
      finish t n (if V.is_fixnum v then v else flor t (Float.floor (float_val t v)))
  | Ptruncate ->
      let v = arg t n 0 in
      finish t n (if V.is_fixnum v then v else flor t (Float.trunc (float_val t v)))
  | Pround ->
      let v = arg t n 0 in
      finish t n (if V.is_fixnum v then v else flor t (Float.round (float_val t v)))
  | Pexact_to_inexact -> finish t n (flor t (float_val t (arg t n 0)))
  | Pinexact_to_exact ->
      let v = arg t n 0 in
      finish t n (if V.is_fixnum v then v else fixr (int_of_float (float_val t v)))
  | Psin -> finish t n (flor t (sin (float_val t (arg t n 0))))
  | Pcos -> finish t n (flor t (cos (float_val t (arg t n 0))))
  | Patan -> finish t n (flor t (atan (float_val t (arg t n 0))))
  | Plog -> finish t n (flor t (log (float_val t (arg t n 0))))
  | Pexp -> finish t n (flor t (exp (float_val t (arg t n 0))))
  | Plt -> finish t n (compare_chain t n ~fix:( < ) ~flo:( < ))
  | Pgt -> finish t n (compare_chain t n ~fix:( > ) ~flo:( > ))
  | Ple -> finish t n (compare_chain t n ~fix:( <= ) ~flo:( <= ))
  | Pge -> finish t n (compare_chain t n ~fix:( >= ) ~flo:( >= ))
  | Pnumeq -> finish t n (compare_chain t n ~fix:( = ) ~flo:( = ))
  | Pzerop ->
      finish t n
        (V.bool_v (if V.is_fixnum (arg t n 0) then V.fixnum_val (arg t n 0) = 0
                   else float_val t (arg t n 0) = 0.0))
  | Pevenp -> finish t n (V.bool_v (int_arg t n "even?" 0 land 1 = 0))
  | Poddp -> finish t n (V.bool_v (int_arg t n "odd?" 0 land 1 = 1))
  | Pnegativep -> finish t n (V.bool_v (float_val t (arg t n 0) < 0.))
  | Ppositivep -> finish t n (V.bool_v (float_val t (arg t n 0) > 0.))
  (* predicates *)
  | Peq -> finish t n (V.bool_v (arg t n 0 = arg t n 1))
  | Peqv -> finish t n (V.bool_v (V.eqv gc (arg t n 0) (arg t n 1)))
  | Pequal -> finish t n (V.bool_v (V.equal gc (arg t n 0) (arg t n 1)))
  | Pnot -> finish t n (V.bool_v (arg t n 0 = V.vfalse))
  | Pnullp -> finish t n (V.bool_v (arg t n 0 = V.nil))
  | Ppairp -> finish t n (V.bool_v (V.is_pair gc (arg t n 0)))
  | Pnumberp -> finish t n (V.bool_v (is_number t (arg t n 0)))
  | Pintegerp ->
      finish t n
        (V.bool_v
           (V.is_fixnum (arg t n 0)
           || (V.is_flonum gc (arg t n 0) && Float.is_integer (V.flonum_val gc (arg t n 0)))))
  | Pstringp -> finish t n (V.bool_v (V.is_string gc (arg t n 0)))
  | Psymbolp -> finish t n (V.bool_v (V.is_sym (arg t n 0)))
  | Pprocedurep -> finish t n (V.bool_v (V.is_closure gc (arg t n 0)))
  | Pvectorp -> finish t n (V.bool_v (V.is_vector gc (arg t n 0)))
  | Pbooleanp -> finish t n (V.bool_v (arg t n 0 = V.vtrue || arg t n 0 = V.vfalse))
  | Pcharp -> finish t n (V.bool_v (V.is_char (arg t n 0)))
  (* pairs *)
  | Pcons -> finish t n (V.cons gc (arg t n 0) (arg t n 1))
  | Pcar ->
      let pair = arg t n 0 in
      expect t "car" "pair" (V.is_pair gc pair) pair;
      finish t n (V.car gc pair)
  | Pcdr ->
      let pair = arg t n 0 in
      expect t "cdr" "pair" (V.is_pair gc pair) pair;
      finish t n (V.cdr gc pair)
  | Psetcar ->
      let pair = arg t n 0 in
      expect t "set-car!" "pair" (V.is_pair gc pair) pair;
      V.set_car gc pair (arg t n 1);
      finish t n V.vvoid
  | Psetcdr ->
      let pair = arg t n 0 in
      expect t "set-cdr!" "pair" (V.is_pair gc pair) pair;
      V.set_cdr gc pair (arg t n 1);
      finish t n V.vvoid
  | Plist ->
      let acc = ref V.nil in
      for i = n - 1 downto 0 do
        t.ntemps <- 0;
        protect t !acc;
        acc := V.cons gc (arg t n i) !acc
      done;
      finish t n !acc
  | Plength ->
      let rec go acc v =
        if v = V.nil then acc
        else if V.is_pair gc v then go (acc + 1) (V.cdr gc v)
        else err "length: improper list"
      in
      finish t n (fixr (go 0 (arg t n 0)))
  | Pappend ->
      if n = 0 then finish t n V.nil
      else begin
        (* Copy all but the last, sharing the tail. *)
        let rec copy_onto front tail =
          match front with
          | [] -> tail
          | v :: rest ->
              let elems = list_arg t "append" v in
              List.fold_right
                (fun x acc ->
                  t.ntemps <- 0;
                  protect t acc;
                  V.cons gc x acc)
                elems (copy_onto rest tail)
        in
        let all = args t n in
        let rec split = function
          | [ last ] -> ([], last)
          | x :: rest ->
              let front, last = split rest in
              (x :: front, last)
          | [] -> assert false
        in
        let front, last = split all in
        finish t n (copy_onto front last)
      end
  | Preverse ->
      let lst = arg t n 0 in
      let acc = ref V.nil in
      let rec go v =
        if v = V.nil then ()
        else begin
          expect t "reverse" "list" (V.is_pair gc v) lst;
          t.ntemps <- 0;
          protect t !acc;
          acc := V.cons gc (V.car gc v) !acc;
          go (V.cdr gc v)
        end
      in
      go lst;
      finish t n !acc
  | Plist_ref ->
      let k = int_arg t n "list-ref" 1 in
      let rec go v i =
        if not (V.is_pair gc v) then err "list-ref: index %d out of range" k
        else if i = 0 then V.car gc v
        else go (V.cdr gc v) (i - 1)
      in
      finish t n (go (arg t n 0) k)
  | Plist_tail ->
      let k = int_arg t n "list-tail" 1 in
      let rec go v i =
        if i = 0 then v
        else if not (V.is_pair gc v) then err "list-tail: index %d out of range" k
        else go (V.cdr gc v) (i - 1)
      in
      finish t n (go (arg t n 0) k)
  | Pmemq | Pmember ->
      let name, same =
        match p with Pmemq -> ("memq", fun a b -> a = b) | _ -> ("member", V.equal gc)
      in
      let lst = arg t n 1 in
      let rec go v =
        if v = V.nil then V.vfalse
        else begin
          expect t name "list" (V.is_pair gc v) lst;
          if same (arg t n 0) (V.car gc v) then v else go (V.cdr gc v)
        end
      in
      finish t n (go lst)
  | Passq | Passv ->
      let name, same =
        match p with Passq -> ("assq", fun a b -> a = b) | _ -> ("assv", V.eqv gc)
      in
      let lst = arg t n 1 in
      let rec go v =
        if v = V.nil then V.vfalse
        else begin
          expect t name "list" (V.is_pair gc v) lst;
          let entry = V.car gc v in
          if V.is_pair gc entry && same (arg t n 0) (V.car gc entry) then entry
          else go (V.cdr gc v)
        end
      in
      finish t n (go lst)
  (* vectors *)
  | Pmake_vector ->
      let len = int_arg t n "make-vector" 0 in
      let fill = if n > 1 then arg t n 1 else V.fixnum 0 in
      finish t n (V.make_vector gc len fill)
  | Pvector ->
      let v = V.make_vector gc n V.vundef in
      for i = 0 to n - 1 do
        V.vector_set gc v i (arg t n i)
      done;
      finish t n v
  | Pvector_ref ->
      let v = arg t n 0 and i = int_arg t n "vector-ref" 1 in
      if not (V.is_vector gc v) then err "vector-ref: expected vector";
      if i < 0 || i >= V.vector_length gc v then err "vector-ref: index %d out of range" i;
      finish t n (V.vector_ref gc v i)
  | Pvector_set ->
      let v = arg t n 0 and i = int_arg t n "vector-set!" 1 in
      if not (V.is_vector gc v) then err "vector-set!: expected vector";
      if i < 0 || i >= V.vector_length gc v then err "vector-set!: index %d out of range" i;
      V.vector_set gc v i (arg t n 2);
      finish t n V.vvoid
  | Pvector_length ->
      let v = arg t n 0 in
      expect t "vector-length" "vector" (V.is_vector gc v) v;
      finish t n (fixr (V.vector_length gc v))
  | Pvector_fill ->
      let v = arg t n 0 in
      expect t "vector-fill!" "vector" (V.is_vector gc v) v;
      for i = 0 to V.vector_length gc v - 1 do
        V.vector_set gc v i (arg t n 1)
      done;
      finish t n V.vvoid
  (* strings *)
  | Pstring_length -> finish t n (fixr (V.string_length gc (string_arg t n "string-length" 0)))
  | Pstring_ref ->
      let s = string_arg t n "string-ref" 0 in
      let i = string_index t n "string-ref" in
      finish t n (V.char_v (V.string_ref gc s i))
  | Pstring_set ->
      let s = string_arg t n "string-set!" 0 in
      let i = string_index t n "string-set!" in
      let c = char_arg t n "string-set!" 2 in
      V.string_set gc s i c;
      finish t n V.vvoid
  | Pmake_string ->
      let len = int_arg t n "make-string" 0 in
      if len < 0 then err "make-string: length %d out of range" len;
      let c = if n > 1 then char_arg t n "make-string" 1 else ' ' in
      finish t n (V.string_v gc (String.make len c))
  | Pstring_append ->
      let parts = List.init n (fun i -> V.string_val gc (string_arg t n "string-append" i)) in
      finish t n (V.string_v gc (String.concat "" parts))
  | Psubstring ->
      let s = V.string_val gc (string_arg t n "substring" 0) in
      let a = int_arg t n "substring" 1 and b = int_arg t n "substring" 2 in
      if a < 0 || b < a || b > String.length s then
        err "substring: range %d to %d out of range for length %d" a b (String.length s);
      finish t n (V.string_v gc (String.sub s a (b - a)))
  | Pstring_to_symbol ->
      finish t n (V.sym (intern t.cs (V.string_val gc (string_arg t n "string->symbol" 0))))
  | Psymbol_to_string ->
      let v = arg t n 0 in
      expect t "symbol->string" "symbol" (V.is_sym v) v;
      finish t n (V.string_v gc (sym_name t.cs (V.sym_id v)))
  | Pnumber_to_string -> finish t n (V.string_v gc (display_string t (arg t n 0)))
  | Pstring_to_number -> (
      let s = V.string_val gc (string_arg t n "string->number" 0) in
      match int_of_string_opt s with
      | Some k -> finish t n (fixr k)
      | None -> (
          match float_of_string_opt s with
          | Some f -> finish t n (flor t f)
          | None -> finish t n V.vfalse))
  | Pstring_eq ->
      let a = V.string_val gc (string_arg t n "string=?" 0) in
      let b = V.string_val gc (string_arg t n "string=?" 1) in
      finish t n (V.bool_v (a = b))
  | Pstring_copy -> finish t n (V.string_v gc (V.string_val gc (string_arg t n "string-copy" 0)))
  | Plist_to_string ->
      let buf = Buffer.create 16 in
      let rec go v =
        if v = V.nil then ()
        else if V.is_pair gc v then begin
          let c = V.car gc v in
          expect t "list->string" "a list of chars" (V.is_char c) (arg t n 0);
          Buffer.add_char buf (V.char_val c);
          go (V.cdr gc v)
        end
        else expect t "list->string" "a list of chars" false (arg t n 0)
      in
      go (arg t n 0);
      finish t n (V.string_v gc (Buffer.contents buf))
  | Pstring_to_list ->
      let s = V.string_val gc (string_arg t n "string->list" 0) in
      let acc = ref V.nil in
      for i = String.length s - 1 downto 0 do
        t.ntemps <- 0;
        protect t !acc;
        acc := V.cons gc (V.char_v s.[i]) !acc
      done;
      finish t n !acc
  | Pchar_to_integer ->
      let v = arg t n 0 in
      expect t "char->integer" "char" (V.is_char v) v;
      finish t n (fixr (Char.code (V.char_val v)))
  | Pinteger_to_char -> finish t n (V.char_v (Char.chr (int_arg t n "integer->char" 0 land 0xFF)))
  | Pchar_eq -> finish t n (V.bool_v (arg t n 0 = arg t n 1))
  | Preal_to_decimal_string ->
      let digits = int_arg t n "real->decimal-string" 1 in
      finish t n (V.string_v gc (Printf.sprintf "%.*f" digits (float_val t (arg t n 0))))
  (* boxes *)
  | Pbox -> finish t n (V.box_v gc (arg t n 0))
  | Punbox ->
      let b = arg t n 0 in
      expect t "unbox" "box" (V.is_box gc b) b;
      finish t n (V.unbox gc b)
  | Pset_box ->
      let b = arg t n 0 in
      expect t "set-box!" "box" (V.is_box gc b) b;
      V.set_box gc b (arg t n 1);
      finish t n V.vvoid
  (* I/O.  Each of these takes an optional trailing port argument; without
     one, output goes to stdout and input comes from stdin. *)
  | Pdisplay | Pwrite | Pnewline | Pwrite_char | Pwrite_string | Pread_line
  | Pflush_output | Popen_input | Popen_output | Pclose_port | Peof_objectp
  | Pportp | Pread_char -> (
      let port_stream name v =
        if not (V.is_port v) then err "%s: expected a port, got %s" name (display_string t v)
        else if V.port_id v = 1 then Libc.stdout_stream t.libc
        else
          match Hashtbl.find_opt t.ports (V.port_id v) with
          | Some s -> s
          | None -> err "%s: port is closed" name
      in
      (* output stream for a prim whose port argument (if any) is arg t n i *)
      let out_for name i =
        if n > i then port_stream name (arg t n i) else Libc.stdout_stream t.libc
      in
      let arity name lo hi =
        if n < lo || n > hi then err "%s: expects %d..%d arguments, got %d" name lo hi n
      in
      match p with
      | Pdisplay ->
          arity "display" 1 2;
          Libc.fwrite t.libc (out_for "display" 1) (display_string t (arg t n 0));
          finish t n V.vvoid
      | Pwrite ->
          arity "write" 1 2;
          Libc.fwrite t.libc (out_for "write" 1) (write_string_of t (arg t n 0));
          finish t n V.vvoid
      | Pnewline ->
          arity "newline" 0 1;
          Libc.fwrite t.libc (out_for "newline" 0) "\n";
          finish t n V.vvoid
      | Pwrite_char ->
          arity "write-char" 1 2;
          Libc.fwrite t.libc (out_for "write-char" 1) (String.make 1 (char_arg t n "write-char" 0));
          finish t n V.vvoid
      | Pwrite_string ->
          arity "write-string" 1 2;
          Libc.fwrite t.libc (out_for "write-string" 1)
            (V.string_val gc (string_arg t n "write-string" 0));
          finish t n V.vvoid
      | Pread_line -> (
          arity "read-line" 0 1;
          let got =
            if n = 0 then Libc.stdin_gets t.libc
            else Libc.fgets t.libc (port_stream "read-line" (arg t n 0)) ~max:65536
          in
          match got with
          | Some line ->
              let line =
                if String.length line > 0 && line.[String.length line - 1] = '\n' then
                  String.sub line 0 (String.length line - 1)
                else line
              in
              finish t n (V.string_v gc line)
          | None -> finish t n V.veof)
      | Pread_char -> (
          arity "read-char" 0 1;
          let got =
            if n = 0 then Libc.stdin_gets_char t.libc
            else Libc.fgetc t.libc (port_stream "read-char" (arg t n 0))
          in
          match got with Some c -> finish t n (V.char_v c) | None -> finish t n V.veof)
      | Pflush_output ->
          arity "flush-output" 0 1;
          if n = 1 then Libc.fflush t.libc (port_stream "flush-output" (arg t n 0))
          else Libc.flush_all t.libc;
          finish t n V.vvoid
      | Popen_input -> (
          let path = V.string_val gc (string_arg t n "open-input-file" 0) in
          match Libc.fopen t.libc ~path ~mode:"r" with
          | Ok s ->
              let id = t.next_port in
              t.next_port <- id + 1;
              Hashtbl.replace t.ports id s;
              finish t n (V.port_v id)
          | Error e ->
              err "open-input-file: %s: %s" path (Mv_ros.Syscalls.errno_name e))
      | Popen_output -> (
          let path = V.string_val gc (string_arg t n "open-output-file" 0) in
          match Libc.fopen t.libc ~path ~mode:"w" with
          | Ok s ->
              let id = t.next_port in
              t.next_port <- id + 1;
              Hashtbl.replace t.ports id s;
              finish t n (V.port_v id)
          | Error e ->
              err "open-output-file: %s: %s" path (Mv_ros.Syscalls.errno_name e))
      | Pclose_port ->
          let v = arg t n 0 in
          if not (V.is_port v) then err "close-port: expected a port";
          (match Hashtbl.find_opt t.ports (V.port_id v) with
          | Some s ->
              Libc.fclose t.libc s;
              Hashtbl.remove t.ports (V.port_id v)
          | None -> ());
          finish t n V.vvoid
      | Peof_objectp -> finish t n (V.bool_v (arg t n 0 = V.veof))
      | Pportp -> finish t n (V.bool_v (V.is_port (arg t n 0)))
      | _ -> assert false)
  | Pvoid -> finish t n V.vvoid
  | Perror ->
      let parts = List.map (fun v -> display_string t v) (args t n) in
      raise (Scheme_error (String.concat " " parts))
  | Pcurrent_seconds -> finish t n (fixr (int_of_float (t.env.Env.gettimeofday ())))
  | Pcollect_garbage ->
      Sgc.collect t.heap;
      finish t n V.vvoid
  | Pplace_spawn | Pplace_send | Pplace_recv | Pplace_wait -> (
      let ops =
        match t.place_ops with
        | Some ops -> ops
        | None -> err "places are not enabled in this instance"
      in
      match p with
      | Pplace_spawn ->
          let src = V.string_val gc (string_arg t n "place-spawn" 0) in
          (* Spawning a place costs a thread creation plus heap setup;
             charged by the engine's implementation. *)
          finish t n (fixr (ops.po_spawn src))
      | Pplace_send -> (
          let id = int_arg t n "place-send" 0 in
          match Places.encode t.cs (arg t n 1) with
          | m ->
              ops.po_send id m;
              finish t n V.vvoid
          | exception Places.Not_transferable ty ->
              err "place-send: %s values are not transferable" ty)
      | Pplace_recv ->
          let id = int_arg t n "place-receive" 0 in
          let m = ops.po_recv id in
          finish t n (Places.decode t.cs m)
      | Pplace_wait ->
          ops.po_wait (int_arg t n "place-wait" 0);
          finish t n V.vvoid
      | _ -> assert false)
  | Papply -> assert false (* handled in the main loop *)

(* --- main loop --- *)

(* Does this code ever capture its activation frame in a closure?  If not,
   a self-tail-call may overwrite the frame in place instead of allocating
   a fresh one — the JIT's loop optimization (Racket compiles such loops
   to registers; without this every loop iteration would allocate). *)
let analyse_capture (code : code) =
  code.c_no_capture <-
    (if Array.exists (function MkClosure _ -> true | _ -> false) code.c_instrs then 0 else 1)

let[@inline] code_no_capture (code : code) =
  if code.c_no_capture < 0 then analyse_capture code;
  code.c_no_capture = 1

let max_pooled = 4096

let alloc_frame t ~parent ~size =
  if size < Array.length t.pools && t.pools.(size).npooled > 0 then begin
    let p = t.pools.(size) in
    p.npooled <- p.npooled - 1;
    t.pool_count <- t.pool_count - 1;
    let f = p.frames_of_size.(p.npooled) in
    V.frame_set_parent t.heap f parent;
    f
  end
  else V.frame t.heap ~parent ~size

let recycle_frame t f =
  if t.pool_count < max_pooled then begin
    let size = V.frame_size t.heap f in
    let n = Array.length t.pools in
    if size >= n then
      t.pools <-
        Array.init (size + 1) (fun i ->
            if i < n then t.pools.(i) else { frames_of_size = [||]; npooled = 0 });
    let p = t.pools.(size) in
    if p.npooled = Array.length p.frames_of_size then begin
      let a = Array.make (Int.max 8 (2 * p.npooled)) V.nil in
      Array.blit p.frames_of_size 0 a 0 p.npooled;
      p.frames_of_size <- a
    end;
    p.frames_of_size.(p.npooled) <- f;
    p.npooled <- p.npooled + 1;
    t.pool_count <- t.pool_count + 1
  end

(* At return from a no-capture activation, every frame from the current
   environment down to (and including) the activation's own frame is dead:
   recycle them, innermost first.  Top-level code (level -1) owns no
   frame of its own. *)
let recycle_activation t (fr : frame) code =
  if code_no_capture code && code.c_level >= 0 then
    for l = fr.f_level downto code.c_level do
      recycle_frame t fr.f_disp.(l)
    done

let grow_frames t =
  if t.fp + 1 >= Array.length t.frames then begin
    let a =
      Array.init (2 * Array.length t.frames) (fun i ->
          if i < Array.length t.frames then t.frames.(i) else new_frame ())
    in
    t.frames <- a
  end

let grow_disp (fr : frame) level =
  let a = Array.make (Int.max (2 * Array.length fr.f_disp) (level + 1)) V.nil in
  Array.blit fr.f_disp 0 a 0 (Array.length fr.f_disp);
  fr.f_disp <- a

(* Make [env_frame], at [level], the environment of activation [fr], whose
   caller is [caller] ([fr] itself on a tail call, with its display still
   the caller's).  [env_frame]'s parent is [env], the closure's
   environment, at [level] - 1: when that is the caller's frame at the
   same level, the display below it is the caller's (copied, or already in
   place on a tail call); otherwise [env]'s chain is walked once. *)
let enter_frame t ~(caller : frame) (fr : frame) ~env ~env_frame ~level =
  if level >= Array.length fr.f_disp then grow_disp fr level;
  if level > 0 then begin
    let top = level - 1 in
    if top <= caller.f_level && caller.f_disp.(top) = env then begin
      if caller != fr then Array.blit caller.f_disp 0 fr.f_disp 0 level
    end
    else begin
      let e = ref env in
      for l = top downto 0 do
        fr.f_disp.(l) <- !e;
        e := V.frame_parent t.heap !e
      done;
      assert (!e = V.nil)
    end
  end;
  fr.f_disp.(level) <- env_frame;
  fr.f_level <- level;
  fr.f_env <- env_frame

let ensure_globals t =
  if t.cs.nglobals > Array.length t.globals then begin
    let a = Array.make (Int.max t.cs.nglobals (2 * Array.length t.globals)) V.vundef in
    Array.blit t.globals 0 a 0 (Array.length t.globals);
    t.globals <- a
  end

(* Compile-on-first-call: translation work proportional to size. *)
let jit_compile t code =
  code.c_jitted <- true;
  t.env.Env.work (120 + (Array.length code.c_instrs * 35));
  t.on_jit code

let[@inline] jit_check t code = if not code.c_jitted then jit_compile t code

(* Build the callee frame and enter it.  The arguments and the closure are
   on the stack (rooted) until we pop them.  Returns [true] if the call
   completed inline (variadic-primitive closures run without a frame). *)
let enter_call t argc ~tail =
  let clo = t.stack.(t.sp - argc - 1) in
  if not (V.is_closure t.heap clo) then
    err "application of a non-procedure: %s" (display_string t clo);
  let code_idx = V.closure_code t.heap clo in
  let code = t.cs.codes.(code_idx) in
  if code.c_arity = -1 then begin
    (* A variadic primitive in closure clothing: run it in place. *)
    let p = match code.c_instrs.(0) with PrimVarargs p -> p | _ -> assert false in
    exec_prim t p argc;
    let result = pop t in
    ignore (pop t) (* the closure *);
    push t result;
    true
  end
  else begin
  if code.c_arity <> argc then
    err "%s: arity mismatch: expected %d, got %d" code.c_name code.c_arity argc;
  jit_check t code;
  let cur = t.frames.(t.fp) in
  let env = V.closure_env t.heap clo in
  if
    tail && code_idx = cur.f_code && code_no_capture code
    && cur.f_level >= 0
    && (if cur.f_level = 0 then V.nil else cur.f_disp.(cur.f_level - 1)) = env
  then begin
    (* Self-tail-call whose frame never escapes: overwrite it in place
       (the compiled-loop fast path).  The new argument values are already
       on the stack, so reading order does not matter. *)
    for i = argc - 1 downto 0 do
      V.frame_set t.heap cur.f_env i (pop t)
    done;
    ignore (pop t) (* the closure *);
    cur.f_pc <- 0;
    false
  end
  else begin
  let env_frame = alloc_frame t ~parent:env ~size:code.c_frame_size in
  for i = argc - 1 downto 0 do
    V.frame_set t.heap env_frame i (pop t)
  done;
  ignore (pop t) (* the closure *);
  (if tail then begin
     (* Recycle the old activation's frames, read from its display,
        before the new environment overwrites the display. *)
     recycle_activation t cur t.cs.codes.(cur.f_code);
     enter_frame t ~caller:cur cur ~env ~env_frame ~level:code.c_level
   end
   else begin
     grow_frames t;
     t.fp <- t.fp + 1;
     enter_frame t ~caller:cur t.frames.(t.fp) ~env ~env_frame ~level:code.c_level
   end);
  let fr = t.frames.(t.fp) in
  fr.f_code <- code_idx;
  fr.f_pc <- 0;
  false
  end
  end

(* Every [tick_period] instructions: charge them and run the hook, at
   the same instruction boundary as an increment-and-mask counter. *)
let fire_tick t =
  t.next_tick <- t.next_tick + tick_period;
  t.env.Env.work (tick_period * t.cycles_per_instr);
  t.on_tick t

let check_display t =
  for a = 0 to t.fp do
    let fr = t.frames.(a) in
    let e = ref fr.f_env in
    for l = fr.f_level downto 0 do
      if fr.f_disp.(l) <> !e then
        failwith (Printf.sprintf "Vm.check_display: activation %d, level %d of %d" a l fr.f_level);
      e := V.frame_parent t.heap !e
    done;
    if !e <> V.nil then
      failwith (Printf.sprintf "Vm.check_display: activation %d's chain is deeper than level %d" a
                  fr.f_level)
  done

(* Run until the activation above [base_fp] returns; its value. *)
let dispatch t base_fp =
  let result = ref V.vvoid in
  let running = ref true in
  while !running do
    let fr = t.frames.(t.fp) in
    let code = t.cs.codes.(fr.f_code) in
    let instr = code.c_instrs.(fr.f_pc) in
    fr.f_pc <- fr.f_pc + 1;
    t.n_instrs <- t.n_instrs + 1;
    if t.n_instrs = t.next_tick then fire_tick t;
    match instr with
    | Imm v -> push t v
    | Const i -> push t t.cs.constants.(i)
    | Lref (d, i) ->
        push t (V.frame_ref t.heap (if d = 0 then fr.f_env else fr.f_disp.(fr.f_level - d)) i)
    | Lset (d, i) ->
        V.frame_set t.heap (if d = 0 then fr.f_env else fr.f_disp.(fr.f_level - d)) i (pop t)
    | Gref i ->
        ensure_globals t;
        let v = t.globals.(i) in
        if v = V.vundef then
          err "reference to undefined global (slot %d)" i
        else push t v
    | Gset i ->
        ensure_globals t;
        t.globals.(i) <- pop t
    | MkClosure ci -> push t (V.closure t.heap ~code:ci ~env:fr.f_env)
    | Call argc -> ignore (enter_call t argc ~tail:false)
    | TailCall argc ->
        if enter_call t argc ~tail:true then begin
          (* Inline (variadic-primitive) completion in tail position:
             perform the return ourselves. *)
          let v = pop t in
          t.fp <- t.fp - 1;
          if t.fp = base_fp then begin
            result := v;
            running := false
          end
          else push t v
        end
    | Ret ->
        let v = pop t in
        recycle_activation t fr code;
        t.fp <- t.fp - 1;
        if t.fp = base_fp then begin
          result := v;
          running := false
        end
        else push t v
    | Jmp target -> fr.f_pc <- target
    | Jif target -> if pop t = V.vfalse then fr.f_pc <- target
    | Pop -> ignore (pop t)
    (* The hot primitives' success case, computed where the arguments sit;
       anything else falls through to [exec_prim] and its checks. *)
    | Prim (((Padd | Psub | Pmul | Plt | Pgt | Ple | Pge | Pnumeq) as p), 2) ->
        let sp = t.sp in
        let a = t.stack.(sp - 2) and b = t.stack.(sp - 1) in
        if V.is_fixnum a && V.is_fixnum b then begin
          t.stack.(sp - 2) <- fix2 p (V.fixnum_val a) (V.fixnum_val b);
          t.sp <- sp - 1;
          clear_temps t
        end
        else exec_prim t p 2
    | Prim (Pvector_ref, 2) ->
        let sp = t.sp in
        let v = t.stack.(sp - 2) and i = t.stack.(sp - 1) in
        let k = V.fixnum_val i in
        if V.is_fixnum i && k >= 0 && k < V.checked_vector_length t.heap v then begin
          t.stack.(sp - 2) <- V.vector_ref t.heap v k;
          t.sp <- sp - 1;
          clear_temps t
        end
        else exec_prim t Pvector_ref 2
    | Prim (Pvector_set, 3) ->
        let sp = t.sp in
        let v = t.stack.(sp - 3) and i = t.stack.(sp - 2) in
        let k = V.fixnum_val i in
        if V.is_fixnum i && k >= 0 && k < V.checked_vector_length t.heap v then begin
          V.vector_set t.heap v k t.stack.(sp - 1);
          t.stack.(sp - 3) <- V.vvoid;
          t.sp <- sp - 2;
          clear_temps t
        end
        else exec_prim t Pvector_set 3
    | Prim (Papply, 2) ->
        (* (apply f arglist): respread the list and call. *)
        let lst = pop t in
        let f = pop t in
        push t f;
        let rec spread count v =
          if v = V.nil then count
          else begin
            expect t "apply" "list" (V.is_pair t.heap v) lst;
            push t (V.car t.heap v);
            spread (count + 1) (V.cdr t.heap v)
          end
        in
        let argc = spread 0 lst in
        ignore (enter_call t argc ~tail:false)
    | Prim (p, n) -> exec_prim t p n
    | PushFrame n ->
        (* let entry: the init values sit on the stack (rooted) while the
           frame is allocated. *)
        let env_frame = alloc_frame t ~parent:fr.f_env ~size:n in
        for i = n - 1 downto 0 do
          V.frame_set t.heap env_frame i (pop t)
        done;
        let level = fr.f_level + 1 in
        if level >= Array.length fr.f_disp then grow_disp fr level;
        fr.f_disp.(level) <- env_frame;
        fr.f_level <- level;
        fr.f_env <- env_frame
    | PopFrame ->
        let dead = fr.f_env in
        let level = fr.f_level - 1 in
        fr.f_level <- level;
        fr.f_env <- (if level >= 0 then fr.f_disp.(level) else V.nil);
        if code_no_capture code then recycle_frame t dead
    | PrimVarargs _ ->
        (* Only reachable by direct execution of a synthetic closure body,
           which enter_call intercepts. *)
        assert false
  done;
  !result

let run_code t idx =
  ensure_globals t;
  let base_fp = t.fp and base_sp = t.sp in
  grow_frames t;
  t.fp <- t.fp + 1;
  let fr0 = t.frames.(t.fp) in
  fr0.f_code <- idx;
  fr0.f_pc <- 0;
  fr0.f_env <- V.nil;
  fr0.f_level <- -1;
  jit_check t t.cs.codes.(idx);
  let result =
    match dispatch t base_fp with
    | v -> v
    | exception e ->
        (* An escaping exception drops the run's activations, stack slots
           and temps, so none of them stays a GC root. *)
        let bt = Printexc.get_raw_backtrace () in
        t.fp <- base_fp;
        t.sp <- base_sp;
        clear_temps t;
        Printexc.raise_with_backtrace e bt
  in
  (* Charge the instructions since the last tick (or flush), which may
     include some from a run a Scheme error cut short. *)
  t.env.Env.work ((t.n_instrs - (t.next_tick - tick_period)) * t.cycles_per_instr);
  t.next_tick <- t.n_instrs + tick_period;
  result
