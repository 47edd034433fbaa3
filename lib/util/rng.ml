type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create ~seed = { state = Int64.of_int seed }

let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let next_int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t =
  let seed64 = next_int64 t in
  { state = seed64 }

let substream t index =
  if index < 0 then invalid_arg "Rng.substream: negative index";
  (* A read-only derivation: perturb the current state by an odd constant
     times (index+1) and push it through the mix64 bijection.  Distinct
     indices land in distinct states, and the parent stream is untouched,
     so concurrent runs can each take substream i of one root generator. *)
  { state = mix64 (Int64.add t.state (Int64.mul (Int64.of_int (index + 1)) 0xD1B54A32D192ED03L)) }

let next t =
  (* Mask to 62 bits so the result is a non-negative OCaml int. *)
  Int64.to_int (Int64.logand (next_int64 t) 0x3FFFFFFFFFFFFFFFL)

let int t bound =
  assert (bound > 0);
  next t mod bound

(* [int t 256] is the low byte of a splitmix64 output.  With [mix64]
   inlined, the state stays unboxed in the loop, which allocates
   nothing per byte. *)
let fill_bytes t buf ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length buf - len then invalid_arg "Rng.fill_bytes";
  let s = ref t.state in
  for i = pos to pos + len - 1 do
    s := Int64.add !s golden_gamma;
    Bytes.unsafe_set buf i (Char.unsafe_chr (Int64.to_int (mix64 !s) land 0xFF))
  done;
  t.state <- !s

let float t bound =
  let x = float_of_int (next t) /. float_of_int 0x3FFFFFFFFFFFFFFF in
  x *. bound

let bool t = next t land 1 = 1
