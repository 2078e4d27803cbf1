type t = { mu : float; lambda : float; upload : float }

let make ?(upload = infinity) ~mu ~lambda () =
  if not (mu > 0. && Float.is_finite mu) then
    invalid_arg "Cost_model.make: mu must be positive and finite";
  if not (lambda > 0. && Float.is_finite lambda) then
    invalid_arg "Cost_model.make: lambda must be positive and finite";
  if not (upload > 0.) then invalid_arg "Cost_model.make: upload must be positive";
  { mu; lambda; upload }

let unit = { mu = 1.0; lambda = 1.0; upload = infinity }

let delta_t t = t.lambda /. t.mu

let caching t ~duration = t.mu *. duration

(* counting transfers and multiplying once keeps the transfer
   component exact; a running [+. lambda] fold drops bits (S4) *)
let add t ~caching ~transfers = caching +. (float_of_int transfers *. t.lambda)

let pp ppf t =
  if t.upload = infinity then Format.fprintf ppf "{mu=%g; lambda=%g}" t.mu t.lambda
  else Format.fprintf ppf "{mu=%g; lambda=%g; beta=%g}" t.mu t.lambda t.upload
