type t =
  | Uniform of { gap : float }
  | Poisson of { rate : float }
  | Pareto of { shape : float; scale : float }
  | Periodic of { base_rate : float; peak_rate : float; period : float }

(* floor the gap so times stay strictly increasing even when the
   distribution produces a subnormal *)
let[@inline] after clock gap = clock +. Float.max 1e-9 gap

(* Turns the gaps in [times] into arrival times, in place *)
let accumulate times =
  let clock = ref 0.0 in
  for i = 0 to Array.length times - 1 do
    clock := after !clock times.(i);
    times.(i) <- !clock
  done

(* The gaps are drawn into the time column, then summed in place, so
   no arrival boxes a float.  Only the thinned process reads the clock
   between its draws, so it computes its times as it goes. *)
let generate rng t ~n =
  if n < 0 then invalid_arg "Arrival.generate: negative n";
  let times = Array.make n 0.0 in
  (match t with
  | Uniform { gap } ->
      if not (gap > 0.) then invalid_arg "Arrival: gap must be positive";
      Array.fill times 0 n gap;
      accumulate times
  | Poisson { rate } ->
      Dcache_prelude.Rng.fill_exponential rng ~rate times;
      accumulate times
  | Pareto { shape; scale } ->
      Dcache_prelude.Rng.fill_pareto rng ~shape ~scale times;
      accumulate times
  | Periodic { base_rate; peak_rate; period } ->
      if not (base_rate > 0. && peak_rate >= base_rate && period > 0.) then
        invalid_arg "Arrival: Periodic needs 0 < base_rate <= peak_rate and a positive period";
      (* Lewis-Shedler thinning against the constant majorant peak_rate *)
      let rate_at time =
        let phase = 0.5 *. (1.0 +. sin (2.0 *. Float.pi *. time /. period)) in
        base_rate +. ((peak_rate -. base_rate) *. phase)
      in
      let clock = ref 0.0 in
      for i = 0 to n - 1 do
        let candidate = ref !clock in
        let gap = ref 0.0 in
        let accepted = ref false in
        while not !accepted do
          let step = Dcache_prelude.Rng.exponential rng ~rate:peak_rate in
          candidate := !candidate +. step;
          gap := !candidate -. !clock;
          if Dcache_prelude.Rng.float rng peak_rate < rate_at !candidate then accepted := true
        done;
        clock := after !clock !gap;
        times.(i) <- !clock
      done);
  times

let pp ppf = function
  | Uniform { gap } -> Format.fprintf ppf "uniform(gap=%g)" gap
  | Poisson { rate } -> Format.fprintf ppf "poisson(rate=%g)" rate
  | Pareto { shape; scale } -> Format.fprintf ppf "pareto(shape=%g, scale=%g)" shape scale
  | Periodic { base_rate; peak_rate; period } ->
      Format.fprintf ppf "periodic(base=%g, peak=%g, period=%g)" base_rate peak_rate period
