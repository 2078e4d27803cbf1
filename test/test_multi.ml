(* Tests for the multi-item catalogue planner. *)

open Dcache_core
open Helpers
module M = Dcache_multi.Multi_item

let model = Cost_model.make ~mu:1.0 ~lambda:2.0 ()

(* an item from literal (server, time) pairs *)
let item ?(size = 1.0) label pairs =
  {
    M.label;
    size;
    requests = Array.of_list (List.map (fun (server, time) -> Request.make ~server ~time) pairs);
  }

let catalogue () =
  [
    (* two servers ping-pong fast: the free optimum replicates, so a
       caching budget genuinely binds *)
    item "album"
      [ (1, 0.4); (2, 0.5); (1, 0.9); (2, 1.0); (1, 1.4); (2, 1.5); (1, 1.9); (2, 2.0) ];
    item ~size:2.0 "video" [ (2, 0.5); (0, 4.0) ];
    item ~size:0.5 "profile" [ (1, 0.7); (1, 5.0) ];
  ]

let independent_plan_is_sum_of_optima () =
  let items = catalogue () in
  let p = M.plan model ~m:3 items in
  let expected =
    List.fold_left
      (fun acc (it : M.item) ->
        let scaled =
          Cost_model.make ~mu:(model.Cost_model.mu *. it.size)
            ~lambda:(model.Cost_model.lambda *. it.size) ()
        in
        acc +. Offline_dp.cost (Offline_dp.solve scaled (Sequence.create_exn ~m:3 it.requests)))
      0.0 items
  in
  check_float "sum of per-item optima" expected p.total_cost;
  check_float "cost decomposition" p.total_cost (p.total_caching +. p.total_transfer);
  Alcotest.(check int) "three planned items" 3 (List.length p.items)

let per_item_schedules_valid () =
  let items = catalogue () in
  let p = M.plan model ~m:3 items in
  List.iter2
    (fun (it : M.item) (pl : M.planned) ->
      Alcotest.(check string) "label order preserved" it.label pl.p_label;
      match Schedule.validate (Sequence.create_exn ~m:3 it.requests) pl.p_schedule with
      | Ok () -> ()
      | Error es -> Alcotest.failf "%s: %s" it.label (String.concat "; " es))
    items p.items

let size_scales_cost () =
  let small = M.plan model ~m:3 [ item "x" [ (1, 1.0); (2, 2.0) ] ] in
  let big = M.plan model ~m:3 [ item ~size:3.0 "x" [ (1, 1.0); (2, 2.0) ] ] in
  check_float "3x size, 3x cost" (3.0 *. small.total_cost) big.total_cost

let rejects_duplicates_and_bad_sizes () =
  Alcotest.(check bool) "duplicate labels" true
    (try ignore (M.plan model ~m:2 [ item "a" [ (1, 1.0) ]; item "a" [ (1, 2.0) ] ]); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "zero size" true
    (try ignore (M.plan model ~m:2 [ item ~size:0.0 "a" [ (1, 1.0) ] ]); false
     with Invalid_argument _ -> true)

let minimum_caching_formula () =
  let items = catalogue () in
  (* mu * (1*3.0 + 2*4.0 + 0.5*5.0) *)
  check_float "coverage floor" 12.5 (M.minimum_caching model ~m:3 items)

let budget_unconstrained_when_loose () =
  let items = catalogue () in
  let free = M.plan model ~m:3 items in
  match M.plan_with_caching_budget model ~m:3 ~budget:(free.total_caching +. 1.0) items with
  | Ok b ->
      check_float "same plan" free.total_cost b.feasible.total_cost;
      check_float "theta 0" 0.0 b.multiplier
  | Error e -> Alcotest.fail e

let budget_respected_and_bounded () =
  let items = catalogue () in
  let free = M.plan model ~m:3 items in
  let floor_spend = M.minimum_caching model ~m:3 items in
  (* a genuinely binding budget halfway between floor and free spend *)
  let budget = 0.5 *. (floor_spend +. free.total_caching) in
  if free.total_caching <= budget then Alcotest.fail "budget not binding; adjust the catalogue";
  match M.plan_with_caching_budget model ~m:3 ~budget items with
  | Ok b ->
      check_le "budget respected" b.feasible.total_caching budget;
      check_le "dual bounds the feasible plan" b.dual_bound b.feasible.total_cost;
      check_le "constrained costs at least the free optimum" free.total_cost
        b.feasible.total_cost;
      Alcotest.(check bool) "positive multiplier" true (b.multiplier > 0.0)
  | Error e -> Alcotest.fail e

let budget_below_floor_rejected () =
  let items = catalogue () in
  let floor_spend = M.minimum_caching model ~m:3 items in
  match M.plan_with_caching_budget model ~m:3 ~budget:(floor_spend -. 0.1) items with
  | Ok _ -> Alcotest.fail "infeasible budget accepted"
  | Error _ -> ()

let budget_monotone_in_theta =
  qcheck ~count:60 "multi: caching spend is non-increasing in the multiplier"
    (QCheck.make ~print:string_of_float QCheck.Gen.(float_range 0.0 4.0))
    (fun theta ->
      (* emulate two multiplier evaluations through scaled models *)
      let items = catalogue () in
      let spend mult =
        let scaled =
          Cost_model.make ~mu:(model.Cost_model.mu *. (1.0 +. mult)) ~lambda:model.Cost_model.lambda ()
        in
        let p =
          List.fold_left
            (fun acc (it : M.item) ->
              let seq = Sequence.create_exn ~m:3 it.requests in
              let sched = Offline_dp.schedule (Offline_dp.solve scaled seq) in
              acc
              +. Schedule.caching_cost
                   (Cost_model.make ~mu:(model.Cost_model.mu *. it.size)
                      ~lambda:model.Cost_model.lambda ())
                   sched)
            0.0 items
        in
        p
      in
      Dcache_prelude.Float_cmp.approx_le (spend (theta +. 1.0)) (spend theta))

let budget_tightening_raises_cost () =
  let items = catalogue () in
  let free = M.plan model ~m:3 items in
  let floor_spend = M.minimum_caching model ~m:3 items in
  let budget_at f = floor_spend +. (f *. (free.total_caching -. floor_spend)) in
  let cost_at f =
    match M.plan_with_caching_budget model ~m:3 ~budget:(budget_at f) items with
    | Ok b -> b.feasible.total_cost
    | Error e -> Alcotest.fail e
  in
  let loose = cost_at 0.9 and tight = cost_at 0.1 in
  check_le "tighter budget costs at least as much" loose tight

(* The planner's telemetry (docs/OBSERVABILITY.md): item/eval
   counters, the plan spans and the budget-multiplier gauge must fire
   under a recording sink and stay dead otherwise (the Noop contract
   is bench-gated, not re-tested here). *)
let plan_telemetry_recorded () =
  let module Obs = Dcache_obs.Obs in
  let r = Obs.recorder ~clock:(Dcache_obs.Clock.ticks ()) () in
  Obs.set_sink (Obs.Recording r);
  Fun.protect
    ~finally:(fun () ->
      Obs.set_sink Obs.Noop;
      Obs.reset ())
  @@ fun () ->
  let items = catalogue () in
  let _free = M.plan model ~m:3 items in
  let counter name = Obs.counter_value (Obs.counter name) in
  let span_count name =
    match List.assoc_opt name (span_durations ()) with
    | Some h -> Dcache_obs.Histo_log.count h
    | None -> 0
  in
  Alcotest.(check int) "plan counts its items" (List.length items)
    (counter "multi_item.items_planned");
  Alcotest.(check bool) "plan evaluated the catalogue" true (counter "multi_item.plan_evals" >= 1);
  Alcotest.(check int) "plan span recorded" 1 (span_count "multi_item.plan");
  let floor_spend = M.minimum_caching model ~m:3 items in
  let free_spend = (M.plan model ~m:3 items).M.total_caching in
  (match
     M.plan_with_caching_budget model ~m:3
       ~budget:(floor_spend +. (0.25 *. (free_spend -. floor_spend)))
       items
   with
  | Ok b ->
      check_float "multiplier gauge holds the binding theta" b.M.multiplier
        (gauge_value (Obs.gauge "multi_item.multiplier"));
      Alcotest.(check bool) "binding budget needs a positive theta" true (b.M.multiplier > 0.0)
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "budget span recorded" 1 (span_count "multi_item.budget_plan");
  Alcotest.(check bool) "bisection bumped the eval counter" true
    (counter "multi_item.plan_evals" > 2)

let suite =
  [
    case "multi: independent plan sums per-item optima" independent_plan_is_sum_of_optima;
    case "multi: per-item schedules are feasible" per_item_schedules_valid;
    case "multi: size scales cost linearly" size_scales_cost;
    case "multi: rejects duplicates and bad sizes" rejects_duplicates_and_bad_sizes;
    case "multi: coverage floor formula" minimum_caching_formula;
    case "multi: loose budget returns the free optimum" budget_unconstrained_when_loose;
    case "multi: binding budget respected with dual bound" budget_respected_and_bounded;
    case "multi: infeasible budget rejected" budget_below_floor_rejected;
    budget_monotone_in_theta;
    case "multi: tightening the budget raises cost" budget_tightening_raises_cost;
    case "multi: planner telemetry records under a live sink" plan_telemetry_recorded;
  ]
