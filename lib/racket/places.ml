module V = Value
module Exec = Mv_engine.Exec

type msg =
  | M_int of int
  | M_float of float
  | M_bool of bool
  | M_char of char
  | M_string of string
  | M_sym of string
  | M_nil
  | M_void
  | M_list of msg list
  | M_vector of msg array

exception Not_transferable of string

let rec encode cs v =
  let gc = cs.Code.gc in
  if V.is_fixnum v then M_int (V.fixnum_val v)
  else if V.is_sym v then M_sym (Code.sym_name cs (V.sym_id v))
  else if V.is_char v then M_char (V.char_val v)
  else if v = V.nil then M_nil
  else if v = V.vtrue then M_bool true
  else if v = V.vfalse then M_bool false
  else if v = V.vvoid then M_void
  else if V.is_flonum gc v then M_float (V.flonum_val gc v)
  else if V.is_string gc v then M_string (V.string_val gc v)
  else if V.is_pair gc v then M_list (encode_list cs [] v)
  else if V.is_vector gc v then
    M_vector (Array.init (V.vector_length gc v) (fun i -> encode cs (V.vector_ref gc v i)))
  else raise (Not_transferable (V.type_name gc v))

(* A message list is a proper list: a dotted tail has no message form. *)
and encode_list cs acc v =
  let gc = cs.Code.gc in
  if v = V.nil then List.rev acc
  else if V.is_pair gc v then encode_list cs (encode cs (V.car gc v) :: acc) (V.cdr gc v)
  else raise (Not_transferable "improper list")

let rec decode cs m =
  let gc = cs.Code.gc in
  match m with
  | M_int n -> V.fixnum n
  | M_float f -> V.flonum gc f
  | M_bool b -> V.bool_v b
  | M_char c -> V.char_v c
  | M_string s -> V.string_v gc s
  | M_sym s -> V.sym (Code.intern cs s)
  | M_nil -> V.nil
  | M_void -> V.vvoid
  | M_list items ->
      (* Build back to front; GC cannot trigger because decode allocates
         into the receiving VM's heap whose roots cover the stack only —
         so protect the spine in a constant slot. *)
      let slot = Code.add_constant cs V.nil in
      List.iter
        (fun item ->
          let v = decode cs item in
          cs.Code.constants.(slot) <- V.cons gc v cs.Code.constants.(slot))
        (List.rev items);
      let result = cs.Code.constants.(slot) in
      cs.Code.constants.(slot) <- V.nil;
      result
  | M_vector items ->
      let slot = Code.add_constant cs V.nil in
      let vec = V.make_vector gc (Array.length items) (V.fixnum 0) in
      cs.Code.constants.(slot) <- vec;
      Array.iteri (fun i item -> V.vector_set gc vec i (decode cs item)) items;
      cs.Code.constants.(slot) <- V.nil;
      vec

type channel = {
  env : Mv_guest.Env.t;
  q : msg Queue.t;
  mutable waiter : (msg -> unit) option;
}

let channel env = { env; q = Queue.create (); waiter = None }

let send ch m =
  (* Copy cost roughly proportional to the message size. *)
  ch.env.Mv_guest.Env.work 200;
  match ch.waiter with
  | Some wake ->
      ch.waiter <- None;
      wake m
  | None -> Queue.add m ch.q

let receive ch =
  match Queue.take_opt ch.q with
  | Some m -> m
  | None ->
      Exec.block ch.env.Mv_guest.Env.kernel.Mv_ros.Kernel.machine.Mv_engine.Machine.exec
        ~reason:"place-receive" (fun ~now:_ ~wake ->
          if ch.waiter <> None then failwith "Places: concurrent receivers on one channel";
          ch.waiter <- Some wake)
