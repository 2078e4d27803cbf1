type t =
  | Uniform_random
  | Zipf of { exponent : float }
  | Mobility of { stay : float; ring : bool }
  | Round_robin
  | Multi_user of { users : int; stay : float; ring : bool }

let zipf_weights ~m ~exponent =
  Array.init m (fun k -> 1.0 /. (float_of_int (k + 1) ** exponent))

let generate rng t ~m ~n =
  if m < 1 then invalid_arg "Placement.generate: m must be positive";
  if n < 0 then invalid_arg "Placement.generate: negative n";
  match t with
  | Uniform_random -> Array.init n (fun _ -> Dcache_prelude.Rng.int rng m)
  | Zipf { exponent } ->
      if exponent < 0. then invalid_arg "Placement: Zipf exponent must be non-negative";
      let weights = Dcache_prelude.Rng.weights (zipf_weights ~m ~exponent) in
      Array.init n (fun _ -> Dcache_prelude.Rng.categorical rng weights)
  | Mobility { stay; ring } ->
      if not (stay >= 0. && stay <= 1.) then invalid_arg "Placement: stay must be a probability";
      let location = ref 0 in
      Array.init n (fun _ ->
          if m > 1 && not (Dcache_prelude.Rng.bernoulli rng stay) then
            if ring then
              let step = if Dcache_prelude.Rng.bool rng then 1 else m - 1 in
              location := (!location + step) mod m
            else begin
              (* uniform over the other m-1 servers *)
              let hop = Dcache_prelude.Rng.int rng (m - 1) in
              location := if hop >= !location then hop + 1 else hop
            end;
          !location)
  | Round_robin -> Array.init n (fun i -> i mod m)
  | Multi_user { users; stay; ring } ->
      if users < 1 then invalid_arg "Placement: need at least one user";
      if not (stay >= 0. && stay <= 1.) then invalid_arg "Placement: stay must be a probability";
      (* spread the walkers' starting cells over the ring *)
      let location = Array.init users (fun u -> u * m / users) in
      Array.init n (fun _ ->
          let u = Dcache_prelude.Rng.int rng users in
          if m > 1 && not (Dcache_prelude.Rng.bernoulli rng stay) then
            if ring then begin
              let step = if Dcache_prelude.Rng.bool rng then 1 else m - 1 in
              location.(u) <- (location.(u) + step) mod m
            end
            else begin
              let hop = Dcache_prelude.Rng.int rng (m - 1) in
              location.(u) <- (if hop >= location.(u) then hop + 1 else hop)
            end;
          location.(u))

let pp ppf = function
  | Uniform_random -> Format.fprintf ppf "uniform-random"
  | Zipf { exponent } -> Format.fprintf ppf "zipf(s=%g)" exponent
  | Mobility { stay; ring } ->
      Format.fprintf ppf "mobility(stay=%g, %s)" stay (if ring then "ring" else "clique")
  | Round_robin -> Format.fprintf ppf "round-robin"
  | Multi_user { users; stay; ring } ->
      Format.fprintf ppf "multi-user(k=%d, stay=%g, %s)" users stay
        (if ring then "ring" else "clique")
