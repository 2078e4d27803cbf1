type t = { server : int; time : float }

let make ~server ~time =
  if server < 0 then invalid_arg "Request.make: negative server";
  if not (Float.is_finite time) then invalid_arg "Request.make: time must be finite";
  { server; time }

let compare a b =
  match Float.compare a.time b.time with 0 -> Int.compare a.server b.server | c -> c

let equal a b = compare a b = 0
