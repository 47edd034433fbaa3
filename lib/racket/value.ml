type v = int

(* --- immediates --- *)

let fixnum n = (n lsl 1) lor 1
let[@inline] is_fixnum v = v land 1 = 1
let[@inline] fixnum_val v = v asr 1
let sym id = (id lsl 3) lor 0b010
let[@inline] is_sym v = v land 7 = 0b010
let sym_id v = v lsr 3
let char_v c = (Char.code c lsl 3) lor 0b100
let[@inline] is_char v = v land 7 = 0b100
let char_val v = Char.chr ((v lsr 3) land 0xFF)

let special k = (k lsl 3) lor 0b110
let nil = special 0
let vtrue = special 1
let vfalse = special 2
let vvoid = special 3
let veof = special 4
let vundef = special 5
let bool_v b = if b then vtrue else vfalse
let is_truthy v = v <> vfalse

let port_v id = special (16 + id)
let[@inline] is_port v = v land 7 = 0b110 && v lsr 3 >= 16
let port_id v = (v lsr 3) - 16

(* --- heap objects --- *)

let tag_pair = 1
let tag_vector = 2
let tag_string = 3
let tag_flonum = 4
let tag_closure = 5
let tag_box = 6
let tag_frame = 7

let register_scannable gc =
  List.iter
    (fun tag -> Sgc.set_scannable gc ~tag true)
    [ tag_pair; tag_vector; tag_closure; tag_box; tag_frame ]

let[@inline] is_ptr v = v land 7 = 0 && v <> 0
let[@inline] has_tag gc v tag = is_ptr v && Sgc.header_tag gc v = tag

let[@inline] slot addr i = addr + ((i + 1) * 8)

(* pairs *)

let cons gc a d =
  let p = Sgc.alloc gc ~tag:tag_pair ~words:2 ~init:0 in
  Sgc.write_word gc (slot p 0) a;
  Sgc.write_word gc (slot p 1) d;
  p

let[@inline] is_pair gc v = has_tag gc v tag_pair
let[@inline] car gc p = Sgc.read_word gc (slot p 0)
let[@inline] cdr gc p = Sgc.read_word gc (slot p 1)
let[@inline] set_car gc p x = Sgc.write_word gc (slot p 0) x
let[@inline] set_cdr gc p x = Sgc.write_word gc (slot p 1) x

let list_of gc items = List.fold_right (fun x acc -> cons gc x acc) items nil

let to_list gc v =
  let rec go acc v =
    if v = nil then List.rev acc
    else if is_pair gc v then go (car gc v :: acc) (cdr gc v)
    else invalid_arg "Value.to_list: improper list"
  in
  go [] v

(* vectors *)

let make_vector gc n fill = Sgc.alloc gc ~tag:tag_vector ~words:(Int.max n 0) ~init:fill

let[@inline] is_vector gc v = has_tag gc v tag_vector
let[@inline] vector_length gc v = Sgc.header_words gc v

let[@inline] checked_vector_length gc v =
  if is_ptr v then
    let h = Sgc.header gc v in
    if h land 0xFF = tag_vector then h lsr 8 else -1
  else -1

let[@inline] vector_ref gc v i = Sgc.read_word gc (slot v i)
let[@inline] vector_set gc v i x = Sgc.write_word gc (slot v i) x

(* strings: word 0 = length in bytes, then packed bytes *)

let string_v gc s =
  let len = String.length s in
  let data_words = (len + 7) / 8 in
  let a = Sgc.alloc gc ~tag:tag_string ~words:(1 + data_words) ~init:0 in
  Sgc.write_word gc (slot a 0) len;
  for w = 0 to data_words - 1 do
    let word = ref 0 in
    for b = 0 to 7 do
      let i = (w * 8) + b in
      if i < len then word := !word lor (Char.code s.[i] lsl (b * 8))
    done;
    Sgc.write_word gc (slot a (1 + w)) !word
  done;
  a

let[@inline] is_string gc v = has_tag gc v tag_string
let string_length gc v = Sgc.read_word gc (slot v 0)

let string_ref gc v i =
  let word = Sgc.read_word gc (slot v (1 + (i / 8))) in
  Char.chr ((word lsr (i mod 8 * 8)) land 0xFF)

let string_set gc v i c =
  let waddr = slot v (1 + (i / 8)) in
  let word = Sgc.read_word gc waddr in
  let shift = i mod 8 * 8 in
  let word = word land lnot (0xFF lsl shift) lor (Char.code c lsl shift) in
  Sgc.write_word gc waddr word

let string_val gc v =
  let len = string_length gc v in
  String.init len (fun i -> string_ref gc v i)

(* flonums: two 32-bit halves of the IEEE bits *)

let flonum gc f =
  let bits = Int64.bits_of_float f in
  let a = Sgc.alloc gc ~tag:tag_flonum ~words:2 ~init:0 in
  Sgc.write_word gc (slot a 0) (Int64.to_int (Int64.logand bits 0xFFFFFFFFL));
  Sgc.write_word gc (slot a 1) (Int64.to_int (Int64.shift_right_logical bits 32));
  a

let[@inline] is_flonum gc v = has_tag gc v tag_flonum

let flonum_val gc v =
  let lo = Sgc.read_word gc (slot v 0) and hi = Sgc.read_word gc (slot v 1) in
  Int64.float_of_bits
    (Int64.logor (Int64.of_int lo) (Int64.shift_left (Int64.of_int hi) 32))

(* closures: word 0 = code index (as a fixnum, so the scanner skips it),
   word 1 = captured environment *)

let closure gc ~code ~env =
  let a = Sgc.alloc gc ~tag:tag_closure ~words:2 ~init:0 in
  Sgc.write_word gc (slot a 0) (fixnum code);
  Sgc.write_word gc (slot a 1) env;
  a

let[@inline] is_closure gc v = has_tag gc v tag_closure
let[@inline] closure_code gc v = fixnum_val (Sgc.read_word gc (slot v 0))
let[@inline] closure_env gc v = Sgc.read_word gc (slot v 1)

(* boxes *)

let box_v gc x =
  let a = Sgc.alloc gc ~tag:tag_box ~words:1 ~init:0 in
  Sgc.write_word gc (slot a 0) x;
  a

let[@inline] is_box gc v = has_tag gc v tag_box
let[@inline] unbox gc v = Sgc.read_word gc (slot v 0)
let[@inline] set_box gc v x = Sgc.write_word gc (slot v 0) x

(* environment frames: word 0 = parent, then slots *)

let frame gc ~parent ~size =
  let a = Sgc.alloc gc ~tag:tag_frame ~words:(size + 1) ~init:vundef in
  Sgc.write_word gc (slot a 0) parent;
  a

let[@inline] frame_parent gc v = Sgc.read_word gc (slot v 0)
let[@inline] frame_set_parent gc v p = Sgc.write_word gc (slot v 0) p
let[@inline] frame_ref gc v i = Sgc.read_word gc (slot v (i + 1))
let[@inline] frame_set gc v i x = Sgc.write_word gc (slot v (i + 1)) x
let[@inline] frame_size gc v = Sgc.header_words gc v - 1

(* --- generic --- *)

let eqv gc a b =
  a = b || (is_flonum gc a && is_flonum gc b && flonum_val gc a = flonum_val gc b)

let rec equal gc a b =
  eqv gc a b
  || (is_pair gc a && is_pair gc b && equal gc (car gc a) (car gc b)
     && equal gc (cdr gc a) (cdr gc b))
  || (is_string gc a && is_string gc b && string_val gc a = string_val gc b)
  ||
  (is_vector gc a && is_vector gc b
  &&
  let n = vector_length gc a in
  n = vector_length gc b
  &&
  let rec all i = i >= n || (equal gc (vector_ref gc a i) (vector_ref gc b i) && all (i + 1)) in
  all 0)

let type_name gc v =
  if is_fixnum v then "fixnum"
  else if is_sym v then "symbol"
  else if is_char v then "char"
  else if v = nil then "null"
  else if v = vtrue || v = vfalse then "boolean"
  else if v = vvoid then "void"
  else if v = veof then "eof"
  else if v = vundef then "undefined"
  else if is_port v then "port"
  else if is_ptr v then
    match Sgc.header_tag gc v with
    | 1 -> "pair"
    | 2 -> "vector"
    | 3 -> "string"
    | 4 -> "flonum"
    | 5 -> "procedure"
    | 6 -> "box"
    | 7 -> "frame"
    | _ -> "unknown"
  else "invalid"
