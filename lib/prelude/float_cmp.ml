let default_eps = 1e-9

let approx_eq ?(eps = default_eps) a b =
  if a = b then true (* covers equal infinities and exact hits *)
  else if Float.is_finite a && Float.is_finite b then
    let scale = Float.max 1.0 (Float.max (Float.abs a) (Float.abs b)) in
    Float.abs (a -. b) <= eps *. scale
  else false (* a non-finite value only approximates itself *)

let approx_le ?(eps = default_eps) a b = a <= b || approx_eq ~eps a b

let compare_approx ?(eps = default_eps) a b =
  if approx_eq ~eps a b then 0 else compare a b
