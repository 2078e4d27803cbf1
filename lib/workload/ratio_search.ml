open Dcache_core

type found = { ratio : float; sc_cost : float; opt_cost : float; seq : Sequence.t }

let evaluate model seq =
  let sc = (Online_sc.run model seq).Online_sc.total_cost in
  let opt = Offline_dp.cost (Offline_dp.solve model seq) in
  { ratio = (if opt > 0. then sc /. opt else 1.0); sc_cost = sc; opt_cost = opt; seq }

(* Mutable genome: parallel arrays of servers and strictly increasing
   times. *)
let to_sequence ~m servers times =
  match Sequence.of_columns ~m ~servers ~times with
  | Ok seq -> seq
  | Error msg -> invalid_arg msg

let mutate rng ~m servers times =
  let n = Array.length servers in
  let servers = Array.copy servers and times = Array.copy times in
  let i = Dcache_prelude.Rng.int rng n in
  (match Dcache_prelude.Rng.int rng 3 with
  | 0 ->
      (* move one request's time strictly between its neighbours *)
      let lo = if i = 0 then 0.0 else times.(i - 1) in
      let hi = if i = n - 1 then times.(n - 1) +. 2.0 else times.(i + 1) in
      let width = hi -. lo in
      (* stay strictly inside (lo, hi): floor and ceiling are relative
         to the gap so degenerate neighbours cannot break the order *)
      let offset =
        Float.min (0.999 *. width)
          (Float.max (1e-9 *. width) (Dcache_prelude.Rng.float rng (0.999 *. width)))
      in
      times.(i) <- lo +. offset
  | 1 ->
      (* reassign one request's server *)
      servers.(i) <- Dcache_prelude.Rng.int rng m
  | _ ->
      (* stretch or shrink the tail of the timeline from i onwards *)
      let factor = Dcache_prelude.Rng.float_in rng 0.5 2.0 in
      let pivot = if i = 0 then 0.0 else times.(i - 1) in
      for j = i to n - 1 do
        times.(j) <- pivot +. ((times.(j) -. pivot) *. factor)
      done);
  (servers, times)

let random_genome rng model ~m ~n =
  let delta_t = Cost_model.delta_t model in
  let servers = Array.init n (fun _ -> Dcache_prelude.Rng.int rng m) in
  let clock = ref 0.0 in
  let times =
    Array.init n (fun _ ->
        clock := !clock +. Dcache_prelude.Rng.float_in rng (0.05 *. delta_t) (2.5 *. delta_t);
        !clock)
  in
  (servers, times)

let adversarial_genome model ~m ~n variant =
  let seq =
    match variant with
    | 0 -> Adversary.expiry_chaser model ~m ~n
    | 1 -> Adversary.ping_pong_far model ~m ~n
    | _ -> Adversary.burst_train model ~m ~n
  in
  let requests = Sequence.requests seq in
  (Array.map (fun r -> r.Request.server) requests, Array.map (fun r -> r.Request.time) requests)

(* One restart is a pure function of its derived generator, so the
   restarts can run on a {!Dcache_prelude.Pool} — each derives its
   stream from the caller's [rng] by index ([Rng.derive] does not
   advance the parent), and the winner is folded positionally, making
   the parallel search byte-identical to the sequential one at any
   domain count. *)
let climb model ~m ~n ~steps ~restart rng =
  let genome =
    if restart < 3 then adversarial_genome model ~m ~n restart
    else random_genome rng model ~m ~n
  in
  let current = ref genome in
  let start = evaluate model (to_sequence ~m (fst genome) (snd genome)) in
  let current_score = ref start.ratio in
  let best = ref start in
  for _ = 1 to steps do
    let servers, times = mutate rng ~m (fst !current) (snd !current) in
    let candidate = evaluate model (to_sequence ~m servers times) in
    if candidate.ratio >= !current_score then begin
      current := (servers, times);
      current_score := candidate.ratio;
      if candidate.ratio > !best.ratio then best := candidate
    end
  done;
  !best

let search ?(restarts = 6) ?(steps = 1500) ?pool ~rng ~m ~n model =
  if m < 2 then invalid_arg "Ratio_search.search: need at least 2 servers";
  if n < 1 then invalid_arg "Ratio_search.search: need at least 1 request";
  let run restart =
    climb model ~m ~n ~steps ~restart (Dcache_prelude.Rng.derive rng restart)
  in
  let found =
    match pool with
    | Some pool -> Dcache_prelude.Pool.parallel_init pool restarts run
    | None -> Array.init restarts run
  in
  let best = ref (evaluate model (Adversary.expiry_chaser model ~m ~n)) in
  Array.iter (fun f -> if f.ratio > !best.ratio then best := f) found;
  !best
