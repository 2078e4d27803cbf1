type t = { lo : float; hi : float }

let make ~lo ~hi =
  if not (Float.is_finite lo && Float.is_finite hi) then
    invalid_arg "Interval.make: bounds must be finite";
  if hi < lo then invalid_arg "Interval.make: hi < lo";
  { lo; hi }

let contains ?(eps = Float_cmp.default_eps) t x =
  x >= t.lo -. eps && x <= t.hi +. eps

let overlaps ?(eps = Float_cmp.default_eps) a b =
  Float.min a.hi b.hi -. Float.max a.lo b.lo > eps

let merge ?(eps = Float_cmp.default_eps) spans =
  let sorted = List.sort (fun a b -> Float.compare a.lo b.lo) spans in
  let rec go acc = function
    | [] -> List.rev acc
    | span :: rest -> (
        match acc with
        | prev :: acc' when span.lo <= prev.hi +. eps ->
            go ({ prev with hi = Float.max prev.hi span.hi } :: acc') rest
        | _ -> go (span :: acc) rest)
  in
  go [] sorted

let measure ?eps spans = List.fold_left (fun acc t -> acc +. (t.hi -. t.lo)) 0.0 (merge ?eps spans)

let first_gap ?(eps = Float_cmp.default_eps) spans ~lo ~hi =
  let merged = merge ~eps spans in
  let rec scan covered_to = function
    | [] -> if covered_to < hi -. eps then Some (covered_to, hi) else None
    | span :: rest ->
        if span.lo > covered_to +. eps && covered_to < hi -. eps then
          Some (covered_to, Float.min hi span.lo)
        else scan (Float.max covered_to span.hi) rest
  in
  if hi <= lo then None else scan lo (List.filter (fun s -> s.hi > lo) merged)
