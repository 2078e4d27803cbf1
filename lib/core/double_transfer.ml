type weighted_transfer = { wt_dst : int; wt_time : float; weight : float }

type t = {
  initial_cost : float;
  transfers : weighted_transfer list;
  plain_caching : float;
  dt_cost : float;
  sc_cost : float;
}

let of_run model (run : Online_sc.run) =
  if List.is_empty run.segments then
    invalid_arg "Double_transfer.of_run: the run kept no segments (pass ~record_events:true)";
  let mu = model.Cost_model.mu and lambda = model.Cost_model.lambda in
  let initial_cost = ref 0.0 and transfers = ref [] and folded = ref 0.0 in
  List.iter
    (fun (s : Online_sc.segment) ->
      let omega = mu *. s.tail in
      folded := !folded +. omega;
      if s.by_transfer then
        transfers :=
          { wt_dst = s.seg_server; wt_time = s.activated; weight = lambda +. omega }
          :: !transfers
      else initial_cost := !initial_cost +. omega)
    run.segments;
  (* transfers that created copies still alive at the horizon have
     their tails already truncated inside the run's segments, so the
     fold above covers every transfer exactly once *)
  let plain_caching = run.caching_cost -. !folded in
  let dt_cost =
    !initial_cost +. plain_caching
    +. List.fold_left (fun acc wt -> acc +. wt.weight) 0.0 !transfers
  in
  {
    initial_cost = !initial_cost;
    transfers = List.rev !transfers;
    plain_caching;
    dt_cost;
    sc_cost = run.total_cost;
  }

type reduction = {
  v_amount : float;
  h_amount : float;
  n' : int;
  dt_reduced : float;
  opt_reduced : float;
  dt_upper : float;
  opt_lower : float;
}

let reduce model seq ~sc_cost ~opt_cost =
  let mu = model.Cost_model.mu and lambda = model.Cost_model.lambda in
  let n = Sequence.n seq and prev = Sequence.prevs seq in
  let v_amount = ref 0.0 and h_amount = ref 0.0 and n' = ref 0 in
  for i = 1 to n do
    let dt = Sequence.time seq i -. Sequence.time seq (i - 1) in
    if mu *. dt > lambda then v_amount := !v_amount +. ((mu *. dt) -. lambda);
    let p = prev.(i) in
    let sigma = if p >= 0 then Sequence.time seq i -. Sequence.time seq p else infinity in
    let musig = mu *. sigma in
    if musig < lambda then h_amount := !h_amount +. musig else incr n'
  done;
  {
    v_amount = !v_amount;
    h_amount = !h_amount;
    n' = !n';
    dt_reduced = sc_cost -. !v_amount -. !h_amount;
    opt_reduced = opt_cost -. !v_amount -. !h_amount;
    dt_upper = 3.0 *. float_of_int !n' *. lambda;
    opt_lower = float_of_int !n' *. lambda;
  }

let theorem3_holds model _seq run ~opt_cost =
  let dt = of_run model run in
  let le = Dcache_prelude.Float_cmp.approx_le in
  let eq = Dcache_prelude.Float_cmp.approx_eq in
  eq dt.dt_cost dt.sc_cost
  && List.for_all (fun wt -> le wt.weight (2.0 *. model.Cost_model.lambda)) dt.transfers
  && le run.Online_sc.total_cost (Online_sc.competitive_bound *. opt_cost)
