(* Tests for the heterogeneous-cost exact solver. *)

open Dcache_core
open Helpers
module H = Dcache_baselines.Hetero_dp

let hetero_matches_homogeneous =
  qcheck ~count:250 "hetero: uniform rates reproduce the homogeneous optimum"
    (problem_arbitrary ~max_m:5 ~max_n:12 ())
    (fun { model; seq } ->
      let costs = H.of_homogeneous model ~m:(Sequence.m seq) in
      approx ~eps:1e-6 (H.solve costs seq) (Offline_dp.cost (Offline_dp.solve model seq)))

let closure_shortcuts () =
  (* direct 0->2 costs 10, but 0->1->2 costs 2: the closed price is 2 *)
  let lambda = [| [| 0.; 1.; 10. |]; [| 1.; 0.; 1. |]; [| 10.; 1.; 0. |] |] in
  let costs = H.make_costs_exn ~mu:[| 1.; 1.; 1. |] ~lambda in
  check_float "closed price" 2.0 (H.lambda_of costs ~src:0 ~dst:2);
  check_float "direct price kept" 1.0 (H.lambda_of costs ~src:0 ~dst:1)

let warehouse_server_used () =
  (* server 2 is never requested but stores at 1/10th the price; with
     requests on server 1 spaced far apart, parking the copy on the
     warehouse between them is optimal *)
  let mu = [| 1.0; 1.0; 0.1 |] in
  let lambda = Array.make_matrix 3 3 1.0 in
  let costs = H.make_costs_exn ~mu ~lambda in
  let seq = Sequence.of_list ~m:3 [ (1, 1.0); (1, 21.0) ] in
  let best, sched = H.solve_schedule costs seq in
  (* optimal plan: provision the warehouse immediately (transfer at
     t=0, 1.0), cache there the whole horizon (0.1 * 21 = 2.1), and
     beam both requests from it (2 x 1.0): total 5.1.  Keeping the
     copy on a mu=1 server instead costs ~21.  *)
  check_float "warehouse plan" 5.1 best;
  Alcotest.(check bool) "warehouse actually cached" true
    (List.exists (fun c -> c.Schedule.server = 2) (Schedule.caches sched))

let witness_feasible_and_priced =
  qcheck ~count:150 "hetero: witness schedule is feasible and prices to the optimum"
    (nonempty_problem_arbitrary ~max_m:5 ~max_n:10 ())
    (fun { model; seq } ->
      (* random heterogeneous perturbation of the base model *)
      let m = Sequence.m seq in
      let mu = Array.init m (fun s -> model.Cost_model.mu *. (1.0 +. (0.3 *. float_of_int s))) in
      let lambda =
        Array.init m (fun i ->
            Array.init m (fun j ->
                if i = j then 0.0
                else model.Cost_model.lambda *. (1.0 +. (0.2 *. float_of_int ((i + j) mod 3)))))
      in
      let costs = H.make_costs_exn ~mu ~lambda in
      let best, sched = H.solve_schedule costs seq in
      (match Schedule.validate seq sched with Ok () -> true | Error _ -> false)
      && approx ~eps:1e-6 (H.price costs sched) best)

let witness_replays_through_engine =
  qcheck ~count:100 "hetero: replaying the witness through the engine bills the optimum"
    (nonempty_problem_arbitrary ~max_m:4 ~max_n:10 ())
    (fun { model; seq } ->
      let m = Sequence.m seq in
      let mu = Array.init m (fun s -> 0.5 +. (0.5 *. float_of_int (s + 1))) in
      let lambda =
        Array.init m (fun i ->
            Array.init m (fun j -> if i = j then 0.0 else model.Cost_model.lambda +. (0.1 *. float_of_int (abs (i - j)))))
      in
      let costs = H.make_costs_exn ~mu ~lambda in
      let best, sched = H.solve_schedule costs seq in
      let result =
        Dcache_sim.Engine.run ~costs:(H.engine_costs costs) (Dcache_sim.Replay.make sched) model seq
      in
      approx ~eps:1e-6 result.metrics.total_cost best)

let hetero_lower_than_homogeneous_plan =
  qcheck ~count:100 "hetero: the exact optimum never exceeds the homogeneous plan's bill"
    (nonempty_problem_arbitrary ~max_m:4 ~max_n:10 ())
    (fun { model; seq } ->
      let m = Sequence.m seq in
      let mu = Array.init m (fun s -> model.Cost_model.mu *. (0.5 +. (0.4 *. float_of_int s))) in
      let lambda =
        Array.init m (fun i ->
            Array.init m (fun j ->
                if i = j then 0.0 else model.Cost_model.lambda *. (0.8 +. (0.1 *. float_of_int (i + j)))))
      in
      let costs = H.make_costs_exn ~mu ~lambda in
      (* plan with homogeneous average rates, bill under true prices *)
      let plan = Offline_dp.schedule (Offline_dp.solve model seq) in
      Dcache_prelude.Float_cmp.approx_le (H.solve costs seq) (H.price costs plan))

let rejects_bad_matrices () =
  let check_error mu lambda =
    match H.make_costs_exn ~mu ~lambda with
    | _ -> Alcotest.fail "accepted"
    | exception Invalid_argument _ -> ()
  in
  check_error [||] [||];
  check_error [| 1.0 |] [| [| 0.0; 1.0 |] |];
  check_error [| 0.0; 1.0 |] (Array.make_matrix 2 2 1.0);
  check_error [| 1.0; 1.0 |] [| [| 0.0; -1.0 |]; [| 1.0; 0.0 |] |]

let rejects_large_m () =
  let m = 10 in
  let costs = H.of_homogeneous Cost_model.unit ~m in
  let seq = Sequence.of_list ~m [ (1, 1.0) ] in
  Alcotest.(check bool) "m > 9" true
    (try ignore (H.solve costs seq); false with Invalid_argument _ -> true)

let cost_accessors () =
  let model = Cost_model.make ~mu:2.0 ~lambda:3.0 () in
  let costs = H.of_homogeneous model ~m:4 in
  let engine = H.engine_costs costs in
  for s = 0 to 3 do
    check_float (Printf.sprintf "mu_of %d" s) 2.0 (engine.Dcache_sim.Engine.mu_of s)
  done;
  check_float "closed price is the direct one" 3.0 (H.lambda_of costs ~src:0 ~dst:2);
  let costs' = H.make_costs_exn ~mu:[| 2.0; 2.0 |] ~lambda:[| [| 0.0; 3.0 |]; [| 3.0; 0.0 |] |] in
  check_float "explicit matrix price" 3.0 (H.lambda_of costs' ~src:0 ~dst:1)

let suite =
  [
    hetero_matches_homogeneous;
    case "hetero: cost accessors" cost_accessors;
    case "hetero: price closure finds relays" closure_shortcuts;
    case "hetero: cheap warehouse server is exploited" warehouse_server_used;
    witness_feasible_and_priced;
    witness_replays_through_engine;
    hetero_lower_than_homogeneous_plan;
    case "hetero: rejects malformed matrices" rejects_bad_matrices;
    case "hetero: rejects oversized m" rejects_large_m;
  ]
