(* Tests for the online baseline policies. *)

open Dcache_core
open Helpers
module OP = Dcache_baselines.Online_policies

let unit = Cost_model.unit

let opt model seq = Offline_dp.cost (Offline_dp.solve model seq)

(* ------------------------------------------------------- exact behaviour *)

let static_home_cost () =
  let model = Cost_model.make ~mu:1.0 ~lambda:3.0 () in
  let seq = Sequence.of_list ~m:3 [ (1, 1.0); (0, 2.0); (2, 4.0) ] in
  (* mu * t_n + lambda * (two non-home requests) *)
  check_float "cost" (4.0 +. 6.0) (policy "static-home" model seq).cost

let follow_cost () =
  let model = Cost_model.make ~mu:1.0 ~lambda:3.0 () in
  let seq = Sequence.of_list ~m:3 [ (1, 1.0); (1, 2.0); (2, 4.0) ] in
  (* mu * t_n + lambda * (moves: 0->1, 1->2) *)
  check_float "cost" (4.0 +. 6.0) (policy "follow" model seq).cost

let cache_everywhere_cost () =
  let model = Cost_model.make ~mu:1.0 ~lambda:3.0 () in
  let seq = Sequence.of_list ~m:3 [ (1, 1.0); (2, 2.0); (1, 3.0); (2, 4.0) ] in
  (* s0 caches [0,4], s1 [1,4], s2 [2,4]; transfers on first touches *)
  check_float "cost" (4.0 +. 3.0 +. 2.0 +. 6.0) (policy "cache-everywhere" model seq).cost

let lru_capacity_one_is_follow () =
  let model = Cost_model.make ~mu:0.7 ~lambda:2.2 () in
  let seq =
    Sequence.of_list ~m:4 [ (1, 0.4); (2, 0.9); (1, 1.7); (3, 2.0); (3, 2.4); (0, 3.0) ]
  in
  check_float "k=1 behaves like follow" (policy "follow" model seq).cost
    (OP.classic_lru ~capacity:1 model seq).cost

let lru_eviction_order () =
  let model = Cost_model.unit in
  (* capacity 2: servers 0,1 cached; request on 2 evicts 0 (LRU);
     then a request on 0 misses again *)
  let seq = Sequence.of_list ~m:3 [ (1, 1.0); (2, 2.0); (0, 3.0) ] in
  let o = OP.classic_lru ~capacity:2 model seq in
  (* transfers: to 1, to 2, back to 0 -> 3 *)
  Alcotest.(check int) "three transfers" 3 (Schedule.num_transfers o.schedule)

let lru_hit_keeps_copy () =
  let model = Cost_model.unit in
  let seq = Sequence.of_list ~m:3 [ (1, 1.0); (1, 5.0); (1, 9.0) ] in
  let o = OP.classic_lru ~capacity:2 model seq in
  Alcotest.(check int) "one transfer, then hits" 1 (Schedule.num_transfers o.schedule)

let lru_rejects_zero_capacity () =
  Alcotest.(check bool) "capacity 0" true
    (try
       ignore (OP.classic_lru ~capacity:0 unit (Sequence.of_list ~m:2 [ (1, 1.0) ]));
       false
     with Invalid_argument _ -> true)

(* --------------------------------------------------------- feasibility *)

let all_policies_feasible =
  qcheck ~count:250 "baselines: every deterministic policy emits a feasible schedule"
    (nonempty_problem_arbitrary ())
    (fun { model; seq } ->
      List.for_all
        (fun (o : OP.outcome) ->
          match Schedule.validate seq o.schedule with Ok () -> true | Error _ -> false)
        (OP.all_deterministic model seq))

let all_policies_cost_consistent =
  qcheck ~count:250 "baselines: reported cost equals the schedule's cost"
    (nonempty_problem_arbitrary ())
    (fun { model; seq } ->
      List.for_all
        (fun (o : OP.outcome) -> approx ~eps:1e-6 o.cost (Schedule.cost model o.schedule))
        (OP.all_deterministic model seq))

let all_policies_at_least_opt =
  qcheck ~count:250 "baselines: no online policy beats the offline optimum"
    (nonempty_problem_arbitrary ())
    (fun { model; seq } ->
      let best = opt model seq in
      List.for_all
        (fun (o : OP.outcome) -> Dcache_prelude.Float_cmp.approx_le best o.cost)
        (OP.all_deterministic model seq))

let sc_outcome_matches_run =
  qcheck ~count:200 "baselines: the SC outcome equals Online_sc.run"
    (nonempty_problem_arbitrary ())
    (fun { model; seq } ->
      approx ~eps:1e-6 (OP.sc model seq).cost (Online_sc.run model seq).total_cost)

let randomized_sc_feasible =
  qcheck ~count:100 "baselines: randomized SC is feasible and bounded by 3/min-window heuristics"
    (nonempty_problem_arbitrary ())
    (fun { model; seq } ->
      let rng = Dcache_prelude.Rng.create 4096 in
      let o = OP.randomized_sc ~rng model seq in
      (match Schedule.validate seq o.schedule with Ok () -> true | Error _ -> false)
      && o.cost >= 0.0)

let randomized_per_copy_feasible =
  qcheck ~count:100 "baselines: per-copy randomized SC is feasible and consistent"
    (nonempty_problem_arbitrary ())
    (fun { model; seq } ->
      let rng = Dcache_prelude.Rng.create 2024 in
      let o = OP.randomized_sc_per_copy ~rng model seq in
      (match Schedule.validate seq o.schedule with Ok () -> true | Error _ -> false)
      && approx ~eps:1e-6 o.cost (Schedule.cost model o.schedule)
      && Dcache_prelude.Float_cmp.approx_le (opt model seq) o.cost)

let sc_with_window_spans_behaviour () =
  let model = Cost_model.unit in
  let seq = Sequence.of_list ~m:2 [ (1, 1.0); (1, 2.5); (0, 6.0) ] in
  let sc window = Online_sc.run ~window model seq in
  let tiny = sc 0.01 and huge = sc 100.0 in
  (* the huge window keeps everything: cost ~ cache_everywhere *)
  check_le "huge window caches more" (sc 1.0).total_cost huge.total_cost;
  Alcotest.(check bool) "tiny window transfers more" true (tiny.num_transfers >= huge.num_transfers)

let suite =
  [
    case "static-home: exact cost" static_home_cost;
    case "follow: exact cost" follow_cost;
    case "cache-everywhere: exact cost" cache_everywhere_cost;
    case "classic-lru: capacity 1 degenerates to follow" lru_capacity_one_is_follow;
    case "classic-lru: LRU eviction order" lru_eviction_order;
    case "classic-lru: hits keep the copy" lru_hit_keeps_copy;
    case "classic-lru: rejects zero capacity" lru_rejects_zero_capacity;
    all_policies_feasible;
    all_policies_cost_consistent;
    all_policies_at_least_opt;
    sc_outcome_matches_run;
    randomized_sc_feasible;
    randomized_per_copy_feasible;
    case "sc window extremes" sc_with_window_spans_behaviour;
  ]
