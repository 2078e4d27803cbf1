(* Per-call latencies at 1 ns resolution, in a histogram allocated once:
   [record] allocates nothing, so the timed loop stays allocation-free.
   Calls of [limit] ns or more are only counted, with the maximum kept
   exactly. *)

let limit = 1 lsl 18

type t = { counts : int array; mutable n : int; mutable over : int; mutable max : int }

let create () = { counts = Array.make limit 0; n = 0; over = 0; max = 0 }

let clear t =
  Array.fill t.counts 0 limit 0;
  t.n <- 0;
  t.over <- 0;
  t.max <- 0

let record t ns =
  let ns = Int.max 0 ns in
  if ns < limit then t.counts.(ns) <- t.counts.(ns) + 1 else t.over <- t.over + 1;
  if ns > t.max then t.max <- ns;
  t.n <- t.n + 1

(* Nearest-rank quantile: the smallest recorded value with at least
   [ceil (q * n)] values at or below it.  A rank past [limit] reads as
   the maximum. *)
let quantile t q =
  let rank = Int.max 1 (int_of_float (Float.ceil (q *. float_of_int t.n))) in
  let rec walk i seen =
    if i >= limit then t.max
    else
      let seen = seen + t.counts.(i) in
      if seen >= rank then i else walk (i + 1) seen
  in
  walk 0 0

(* Calls that took longer than [above_ns]. *)
let count_above t ~above_ns =
  let c = ref t.over in
  for i = above_ns + 1 to limit - 1 do
    c := !c + t.counts.(i)
  done;
  !c
