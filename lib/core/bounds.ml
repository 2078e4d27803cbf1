(* A transfer can be an upload, so it costs at least
   [lambda_eff = min(lambda, beta)], the price Streaming_dp charges *)
let lambda_eff model = Float.min model.Cost_model.lambda model.Cost_model.upload

let marginal model seq =
  let n = Sequence.n seq and prev = Sequence.prevs seq in
  let lam = lambda_eff model and mu = model.Cost_model.mu in
  let b = Array.make (n + 1) 0.0 in
  for i = 1 to n do
    let p = prev.(i) in
    let sigma = if p >= 0 then Sequence.time seq i -. Sequence.time seq p else infinity in
    b.(i) <- Float.min lam (mu *. sigma)
  done;
  b

let running model seq =
  let b = marginal model seq in
  let acc = ref 0.0 in
  Array.map
    (fun bi ->
      acc := !acc +. bi;
      !acc)
    b

(* [running]'s last entry without its arrays: the same left-to-right
   sum, so the same bits (adding b_0 = 0 changes nothing).  In place
   of p(i) it keeps each server's latest time, [neg_infinity] before
   its first request, so sigma_i = t_i - last.(s_i) is the same
   subtraction (and [infinity] for a first request).  It reads the
   sequence's columns in place, so nothing is boxed per request. *)
let lower_bound model seq =
  let lam = lambda_eff model and mu = model.Cost_model.mu in
  let last = Array.make (Sequence.m seq) neg_infinity in
  last.(0) <- 0.0;
  let servers = seq.Sequence.server and times = seq.Sequence.time in
  let acc = ref 0.0 in
  for k = 0 to Array.length servers - 1 do
    let s = servers.(k) and time = times.(k) in
    let sigma = time -. last.(s) in
    last.(s) <- time;
    (* dcache-sema: allow S4 — B_n is Streaming_dp's plain prefix sum, kept bit for bit *)
    acc := !acc +. Float.min lam (mu *. sigma)
  done;
  !acc
