(* The samples sit unboxed in the first [n] slots of a float array that
   doubles as it fills: a sample costs one or two words, and [add]
   allocates only when the array doubles.  Their order is free — every
   consumer reduces (mean, extrema) or sorts (percentiles) — so the
   percentile queries sort the array in place and remember that it is
   sorted until the next [add]. *)
type t = {
  mutable samples : float array;
  mutable n : int;
  mutable sum : float;
  mutable sum_sq : float;
  mutable lo : float;
  mutable hi : float;
  mutable is_sorted : bool;
}

let create () =
  {
    samples = [||];
    n = 0;
    sum = 0.;
    sum_sq = 0.;
    lo = infinity;
    hi = neg_infinity;
    is_sorted = true;
  }

(* Room for [extra] more samples. *)
let reserve t extra =
  let need = t.n + extra in
  let cap = Array.length t.samples in
  if need > cap then begin
    let grown = Array.make (Int.max need (2 * cap)) 0. in
    Array.blit t.samples 0 grown 0 t.n;
    t.samples <- grown
  end

let add t x =
  reserve t 1;
  t.samples.(t.n) <- x;
  t.n <- t.n + 1;
  t.sum <- t.sum +. x;
  t.sum_sq <- t.sum_sq +. (x *. x);
  t.is_sorted <- false;
  if x < t.lo then t.lo <- x;
  if x > t.hi then t.hi <- x

let merge_into dst src =
  let m = src.n and from = src.samples in
  reserve dst m;
  Array.blit from 0 dst.samples dst.n m;
  dst.n <- dst.n + m;
  dst.sum <- dst.sum +. src.sum;
  dst.sum_sq <- dst.sum_sq +. src.sum_sq;
  dst.is_sorted <- dst.is_sorted && m = 0;
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
   over the same accumulated samples) reuse the sorted array.  The array
   is first trimmed to its [n] samples, so the sort sees exactly them. *)
let sorted t =
  if not t.is_sorted then begin
    if Array.length t.samples > t.n then t.samples <- Array.sub t.samples 0 t.n;
    Array.sort Float.compare t.samples;
    t.is_sorted <- true
  end;
  t.samples

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
