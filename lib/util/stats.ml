type t = {
  mutable samples : float list;
  mutable n : int;
  mutable sum : float;
  mutable sum_sq : float;
  mutable lo : float;
  mutable hi : float;
  mutable sorted : float array option;  (* cache, invalidated by [add] *)
}

let create () =
  {
    samples = [];
    n = 0;
    sum = 0.;
    sum_sq = 0.;
    lo = infinity;
    hi = neg_infinity;
    sorted = None;
  }

let add t x =
  t.samples <- x :: t.samples;
  t.n <- t.n + 1;
  t.sum <- t.sum +. x;
  t.sum_sq <- t.sum_sq +. (x *. x);
  t.sorted <- None;
  if x < t.lo then t.lo <- x;
  if x > t.hi then t.hi <- x

let merge_into dst src =
  (* rev_append keeps this O(|src|); sample order is irrelevant because
     every consumer reduces (mean/extrema) or sorts (percentiles). *)
  dst.samples <- List.rev_append src.samples dst.samples;
  dst.n <- dst.n + src.n;
  dst.sum <- dst.sum +. src.sum;
  dst.sum_sq <- dst.sum_sq +. src.sum_sq;
  dst.sorted <- None;
  if src.lo < dst.lo then dst.lo <- src.lo;
  if src.hi > dst.hi then dst.hi <- src.hi

let count t = t.n
let mean t = if t.n = 0 then 0. else t.sum /. float_of_int t.n

let stddev t =
  if t.n < 2 then 0.
  else
    let m = mean t in
    let var = (t.sum_sq /. float_of_int t.n) -. (m *. m) in
    sqrt (Float.max var 0.)

let min t = t.lo
let max t = t.hi

(* Sort once per batch of adds: repeated percentile queries (p50/p95/p99
   over the same accumulated samples) reuse the cached array. *)
let sorted t =
  match t.sorted with
  | Some arr -> arr
  | None ->
      let arr = Array.of_list t.samples in
      Array.sort Float.compare arr;
      t.sorted <- Some arr;
      arr

let percentile t p =
  assert (t.n > 0);
  let arr = sorted t in
  let rank = int_of_float (ceil (p /. 100. *. float_of_int t.n)) - 1 in
  let idx = Stdlib.max 0 (Stdlib.min (t.n - 1) rank) in
  arr.(idx)

let percentile_interp t p =
  assert (t.n > 0);
  let arr = sorted t in
  let h = p /. 100. *. float_of_int (t.n - 1) in
  let lo = int_of_float (floor h) in
  let lo = Stdlib.max 0 (Stdlib.min (t.n - 1) lo) in
  let hi = Stdlib.min (t.n - 1) (lo + 1) in
  let frac = h -. float_of_int lo in
  arr.(lo) +. (frac *. (arr.(hi) -. arr.(lo)))

type summary = {
  s_count : int;
  s_mean : float;
  s_stddev : float;
  s_min : float;
  s_max : float;
}

let summary t =
  { s_count = t.n; s_mean = mean t; s_stddev = stddev t; s_min = t.lo; s_max = t.hi }

let pp_summary ppf s =
  Format.fprintf ppf "n=%d mean=%.3f sd=%.3f min=%.3f max=%.3f" s.s_count s.s_mean
    s.s_stddev s.s_min s.s_max
