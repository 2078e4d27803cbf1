open Dcache_core
module Obs = Dcache_obs.Obs

(* the one library layer that had no obs coverage: spans on both
   public planners, an item counter, a per-DP-evaluation counter (the
   budget search's work metric) and the final dual multiplier *)
let sp_plan = Obs.span_name "multi_item.plan"
let sp_budget = Obs.span_name "multi_item.budget_plan"
let c_items = Obs.counter "multi_item.items_planned"
let c_evals = Obs.counter "multi_item.plan_evals"
let g_multiplier = Obs.gauge "multi_item.multiplier"

(* Per-item labeled families, keyed by the item label the caller
   chose.  Children are resolved at plan time — once per public
   planning call, never inside the budget search's evaluation loop —
   and bounded: past the cap new labels collapse into the ["other"]
   child (see Obs's labeled families). *)
let v_item_requests = Obs.counter_vec "multi_item.item_requests" ~labels:[ "item" ]
let v_item_transfers = Obs.counter_vec "multi_item.item_transfers" ~labels:[ "item" ]
let v_item_evictions = Obs.counter_vec "multi_item.item_evictions" ~labels:[ "item" ]
let v_item_cost = Obs.gauge_vec "multi_item.item_cost" ~labels:[ "item" ]

type item = { label : string; size : float; requests : Request.t array }

type planned = {
  p_label : string;
  p_cost : float;
  p_caching : float;
  p_transfer : float;
  p_schedule : Schedule.t;
}

type plan = {
  items : planned list;
  total_cost : float;
  total_caching : float;
  total_transfer : float;
}

let validate ~m items =
  let seen = Hashtbl.create 16 in
  List.map
    (fun it ->
      if Hashtbl.mem seen it.label then
        invalid_arg (Printf.sprintf "Multi_item: duplicate label %S" it.label);
      Hashtbl.add seen it.label ();
      if not (it.size > 0. && Float.is_finite it.size) then
        invalid_arg (Printf.sprintf "Multi_item: item %S has a non-positive size" it.label);
      (it, Sequence.create_exn ~m it.requests))
    items

(* Solve one item under a caching-rate multiplier, but report true
   (multiplier-free) costs. *)
let solve_item model ~multiplier (it, seq) =
  let scaled =
    Cost_model.make
      ~mu:(model.Cost_model.mu *. it.size *. (1.0 +. multiplier))
      ~lambda:(model.Cost_model.lambda *. it.size)
      ()
  in
  let true_model =
    Cost_model.make ~mu:(model.Cost_model.mu *. it.size)
      ~lambda:(model.Cost_model.lambda *. it.size) ()
  in
  let schedule = Offline_dp.schedule (Offline_dp.solve scaled seq) in
  let caching = Schedule.caching_cost true_model schedule in
  let transfer = Schedule.transfer_cost true_model schedule in
  {
    p_label = it.label;
    p_cost = caching +. transfer;
    p_caching = caching;
    p_transfer = transfer;
    p_schedule = schedule;
  }

let assemble items =
  let total f = List.fold_left (fun acc p -> acc +. f p) 0.0 items in
  {
    items;
    total_cost = total (fun p -> p.p_cost);
    total_caching = total (fun p -> p.p_caching);
    total_transfer = total (fun p -> p.p_transfer);
  }

let plan_at model ~multiplier pairs =
  if Obs.probe () then Obs.incr c_evals;
  assemble (List.map (solve_item model ~multiplier) pairs)

(* Per-item breakdown of the plan a public planner returns: serves,
   transfers, evictions (cache intervals dropped before the item's
   horizon) and final cost, one labeled child per item label. *)
let record_items pairs p =
  if Obs.probe () then
    List.iter2
      (fun (it, seq) pi ->
        let horizon = Sequence.horizon seq in
        let evictions =
          List.fold_left
            (fun acc (c : Schedule.cache) -> if c.to_time < horizon then acc + 1 else acc)
            0
            (Schedule.caches pi.p_schedule)
        in
        Obs.add (Obs.counter_with_label v_item_requests it.label) (Sequence.n seq);
        Obs.add
          (Obs.counter_with_label v_item_transfers it.label)
          (Schedule.num_transfers pi.p_schedule);
        Obs.add (Obs.counter_with_label v_item_evictions it.label) evictions;
        Obs.set_gauge (Obs.gauge_with_label v_item_cost it.label) pi.p_cost)
      pairs p.items

let plan model ~m items =
  Obs.spanned sp_plan @@ fun () ->
  let pairs = validate ~m items in
  if Obs.probe () then Obs.add c_items (List.length pairs);
  let p = plan_at model ~multiplier:0.0 pairs in
  record_items pairs p;
  p

let minimum_caching model ~m items =
  List.fold_left
    (fun acc (it, seq) -> acc +. (model.Cost_model.mu *. it.size *. Sequence.horizon seq))
    0.0 (validate ~m items)

type budgeted = { feasible : plan; multiplier : float; dual_bound : float }

(* relative bisection stopping width on theta *)
let tolerance = 1e-6

let plan_with_caching_budget model ~m ~budget items =
  Obs.spanned sp_budget @@ fun () ->
  let pairs = validate ~m items in
  if Obs.probe () then Obs.add c_items (List.length pairs);
  let floor_spend =
    List.fold_left
      (fun acc (it, seq) -> acc +. (model.Cost_model.mu *. it.size *. Sequence.horizon seq))
      0.0 pairs
  in
  if budget < floor_spend -. Dcache_prelude.Float_cmp.default_eps then
    Error
      (Printf.sprintf
         "caching budget %g is below the coverage floor %g: one copy of each item must be \
          cached at all times"
         budget floor_spend)
  else begin
    let unconstrained = plan_at model ~multiplier:0.0 pairs in
    if unconstrained.total_caching <= budget +. Dcache_prelude.Float_cmp.default_eps then begin
      if Obs.probe () then Obs.set_gauge g_multiplier 0.0;
      record_items pairs unconstrained;
      Ok { feasible = unconstrained; multiplier = 0.0; dual_bound = unconstrained.total_cost }
    end
    else begin
      (* dual value at theta: relaxed objective minus theta * budget *)
      let dual theta p = p.total_cost +. (theta *. p.total_caching) -. (theta *. budget) in
      (* grow theta until the spend dips under budget *)
      let rec find_hi theta =
        let p = plan_at model ~multiplier:theta pairs in
        if p.total_caching <= budget || theta > 1e12 then (theta, p) else find_hi (theta *. 2.0)
      in
      let hi, hi_plan = find_hi 1.0 in
      if hi_plan.total_caching > budget +. Dcache_prelude.Float_cmp.default_eps then
        Error "caching budget could not be met numerically (multiplier overflow)"
      else begin
      let best_feasible = ref hi_plan and best_theta = ref hi in
      let best_dual = ref (Float.max (dual 0.0 unconstrained) (dual hi hi_plan)) in
      let lo = ref 0.0 and hi = ref hi in
      while !hi -. !lo > tolerance *. Float.max 1.0 !hi do
        let mid = 0.5 *. (!lo +. !hi) in
        let p = plan_at model ~multiplier:mid pairs in
        best_dual := Float.max !best_dual (dual mid p);
        if p.total_caching <= budget then begin
          if p.total_cost < !best_feasible.total_cost then begin
            best_feasible := p;
            best_theta := mid
          end;
          hi := mid
        end
        else lo := mid
      done;
      if Obs.probe () then Obs.set_gauge g_multiplier !best_theta;
      record_items pairs !best_feasible;
      Ok { feasible = !best_feasible; multiplier = !best_theta; dual_bound = !best_dual }
      end
    end
  end
