(* A transfer can be an upload, so it costs at least
   [lambda_eff = min(lambda, beta)], the price Streaming_dp charges *)
let lambda_eff model = Float.min model.Cost_model.lambda model.Cost_model.upload

let marginal model seq =
  let n = Sequence.n seq in
  let lam = lambda_eff model and mu = model.Cost_model.mu in
  let b = Array.make (n + 1) 0.0 in
  for i = 1 to n do
    b.(i) <- Float.min lam (mu *. Sequence.sigma seq i)
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
   sum, so the same bits (adding b_0 = 0 changes nothing) *)
let lower_bound model seq =
  let lam = lambda_eff model and mu = model.Cost_model.mu in
  let acc = ref 0.0 in
  for i = 1 to Sequence.n seq do
    (* dcache-sema: allow S4 — B_n is Streaming_dp's plain prefix sum, kept bit for bit *)
    acc := !acc +. Float.min lam (mu *. Sequence.sigma seq i)
  done;
  !acc

let coverage_lower_bound model seq = model.Cost_model.mu *. Sequence.horizon seq
