type t = { mu : float; lambda : float; upload : float }

let make ?(upload = infinity) ~mu ~lambda () =
  if not (mu > 0. && Float.is_finite mu) then
    invalid_arg "Cost_model.make: mu must be positive and finite";
  if not (lambda > 0. && Float.is_finite lambda) then
    invalid_arg "Cost_model.make: lambda must be positive and finite";
  (* below the smallest normal float a rate keeps too few bits: mu
     sigma no longer orders the DP's candidates as the exact products
     do, and the answer changes with the scale *)
  if mu < Float.min_float then invalid_arg "Cost_model.make: mu is subnormal";
  if lambda < Float.min_float then invalid_arg "Cost_model.make: lambda is subnormal";
  (* SC's expiry arithmetic divides by the window: a window of exactly
     0 turns expiries into nan *)
  if not (lambda /. mu > 0.) then
    invalid_arg "Cost_model.make: the speculative window lambda / mu underflows to 0";
  if not (upload > 0.) then invalid_arg "Cost_model.make: upload must be positive";
  if upload < Float.min_float then invalid_arg "Cost_model.make: upload is subnormal";
  { mu; lambda; upload }

let unit = { mu = 1.0; lambda = 1.0; upload = infinity }

let delta_t t = t.lambda /. t.mu

(* counting transfers and multiplying once keeps the transfer
   component exact; a running [+. lambda] fold drops bits (S4) *)
let add t ~caching ~transfers = caching +. (float_of_int transfers *. t.lambda)
