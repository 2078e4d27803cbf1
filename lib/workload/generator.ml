open Dcache_core

type spec = { m : int; n : int; arrival : Arrival.t; placement : Placement.t }

let generate rng spec =
  let times = Arrival.generate rng spec.arrival ~n:spec.n in
  let servers = Placement.generate rng spec.placement ~m:spec.m ~n:spec.n in
  match Sequence.of_columns ~m:spec.m ~servers ~times with
  | Ok seq -> seq
  | Error msg -> invalid_arg msg

let generate_seeded ~seed spec = generate (Dcache_prelude.Rng.create seed) spec

let standard_suite model ~m ~n ~seed =
  let delta_t = Cost_model.delta_t model in
  let rng = Dcache_prelude.Rng.create seed in
  let make arrival placement =
    generate (Dcache_prelude.Rng.split rng) { m; n; arrival; placement }
  in
  let synthetic =
    [
      ( "uniform-poisson",
        make (Arrival.Poisson { rate = 1.0 /. delta_t }) Placement.Uniform_random );
      ( "zipf-poisson",
        make (Arrival.Poisson { rate = 1.0 /. delta_t }) (Placement.Zipf { exponent = 1.0 }) );
      ( "mobility-ring",
        make
          (Arrival.Poisson { rate = 2.0 /. delta_t })
          (Placement.Mobility { stay = 0.9; ring = true }) );
      ( "mobility-clique",
        make
          (Arrival.Poisson { rate = 2.0 /. delta_t })
          (Placement.Mobility { stay = 0.7; ring = false }) );
      ( "bursty-pareto",
        make
          (Arrival.Pareto { shape = 1.5; scale = delta_t /. 4.0 })
          Placement.Uniform_random );
      ( "round-robin-uniform",
        make (Arrival.Uniform { gap = delta_t *. 1.1 }) Placement.Round_robin );
      ( "multi-user",
        make
          (Arrival.Poisson { rate = 2.0 /. delta_t })
          (Placement.Multi_user { users = 3; stay = 0.85; ring = true }) );
    ]
  in
  synthetic @ Adversary.all model ~m ~n

