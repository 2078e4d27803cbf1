type acc = {
  mutable n : int;
  mutable mean : float;
  mutable m2 : float;
  mutable lo : float;
  mutable hi : float;
}

let acc_create () = { n = 0; mean = 0.; m2 = 0.; lo = infinity; hi = neg_infinity }

let acc_add a x =
  a.n <- a.n + 1;
  let delta = x -. a.mean in
  a.mean <- a.mean +. (delta /. float_of_int a.n);
  a.m2 <- a.m2 +. (delta *. (x -. a.mean));
  if x < a.lo then a.lo <- x;
  if x > a.hi then a.hi <- x

let mean a = if a.n = 0 then nan else a.mean
let stddev a = if a.n < 2 then nan else sqrt (a.m2 /. float_of_int (a.n - 1))
let min_value a = a.lo
let max_value a = a.hi

type kahan = { mutable k_sum : float; mutable k_comp : float }

let kahan_create () = { k_sum = 0.; k_comp = 0. }

let kahan_add k x =
  let t = k.k_sum +. x in
  if Float.is_finite t then
    (* Neumaier: recover the low-order bits of whichever operand has
       the smaller magnitude; the comparison is exact by design *)
    if abs_float k.k_sum >= abs_float x then k.k_comp <- k.k_comp +. (k.k_sum -. t +. x)
    else k.k_comp <- k.k_comp +. (x -. t +. k.k_sum);
  k.k_sum <- t

let kahan_total k = if Float.is_finite k.k_sum then k.k_sum +. k.k_comp else k.k_sum

(* closest-ranks linear interpolation over an already-sorted copy *)
let interpolate sorted n p =
  if p < 0. || p > 100. then invalid_arg "Stats.percentile: p out of range";
  let rank = p /. 100. *. float_of_int (n - 1) in
  let lo = int_of_float (floor rank) and hi = int_of_float (ceil rank) in
  if lo = hi then sorted.(lo)
  else
    let w = rank -. float_of_int lo in
    (sorted.(lo) *. (1. -. w)) +. (sorted.(hi) *. w)

let percentiles samples ps =
  let n = Array.length samples in
  if n = 0 then invalid_arg "Stats.percentile: empty sample";
  let sorted = Array.copy samples in
  Array.sort Float.compare sorted;
  Array.map (fun p -> interpolate sorted n p) ps

let median samples = (percentiles samples [| 50. |]).(0)

type histogram = {
  lo : float;
  hi : float;
  counts : int array;
  underflow : int;
  overflow : int;
}

let histogram ~bins ~lo ~hi samples =
  if bins <= 0 then invalid_arg "Stats.histogram: bins must be positive";
  if not (hi > lo) then invalid_arg "Stats.histogram: empty range";
  let counts = Array.make bins 0 in
  let underflow = ref 0 and overflow = ref 0 in
  let width = (hi -. lo) /. float_of_int bins in
  let place x =
    if x < lo then incr underflow
    else if x >= hi then if x = hi then counts.(bins - 1) <- counts.(bins - 1) + 1 else incr overflow
    else
      let b = int_of_float ((x -. lo) /. width) in
      let b = if b >= bins then bins - 1 else b in
      counts.(b) <- counts.(b) + 1
  in
  Array.iter place samples;
  { lo; hi; counts; underflow = !underflow; overflow = !overflow }

let linear_fit points =
  let n = Array.length points in
  if n < 2 then invalid_arg "Stats.linear_fit: need at least two points";
  let sx = ref 0. and sy = ref 0. and sxx = ref 0. and sxy = ref 0. in
  Array.iter
    (fun (x, y) ->
      sx := !sx +. x;
      sy := !sy +. y;
      sxx := !sxx +. (x *. x);
      sxy := !sxy +. (x *. y))
    points;
  let nf = float_of_int n in
  let denom = (nf *. !sxx) -. (!sx *. !sx) in
  (* dcache-sema: allow R2 — exact-zero singularity guard; near-zero denoms give a large but defined slope *)
  if denom = 0. then invalid_arg "Stats.linear_fit: x values are all equal";
  let slope = ((nf *. !sxy) -. (!sx *. !sy)) /. denom in
  let intercept = (!sy -. (slope *. !sx)) /. nf in
  (slope, intercept)

let loglog_slope points =
  let logged =
    Array.map
      (fun (x, y) ->
        if x <= 0. || y <= 0. then invalid_arg "Stats.loglog_slope: coordinates must be positive";
        (log x, log y))
      points
  in
  fst (linear_fit logged)
