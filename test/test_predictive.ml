(* Tests for the learning-augmented online algorithm. *)

open Dcache_core
open Helpers

let opt model seq = Offline_dp.cost (Offline_dp.solve model seq)

(* the predictor that never has an estimate: standard SC *)
let blank : Online_predictive.predictor = fun ~server:_ ~time:_ -> None

let blank_equals_standard =
  qcheck ~count:250 "predictive: the blank predictor reproduces standard SC exactly"
    (nonempty_problem_arbitrary ())
    (fun { model; seq } ->
      let standard = Online_sc.run model seq in
      let predictive = Online_predictive.run blank model seq in
      approx ~eps:1e-9 standard.total_cost predictive.total_cost
      && standard.num_transfers = predictive.num_transfers)

let oracle_beats_standard_on_crafted_instance () =
  (* revisit on s1 lands just past the standard window; the oracle
     holds the copy exactly long enough and saves a transfer *)
  let model = Cost_model.unit in
  let seq = Sequence.of_list ~m:2 [ (1, 1.0); (0, 1.5); (1, 2.6) ] in
  let standard = Online_sc.run model seq in
  let predicted = Online_predictive.run ~beta:0.5 (Online_predictive.oracle seq) model seq in
  Alcotest.(check int) "standard pays two transfers" 2 standard.num_transfers;
  Alcotest.(check int) "oracle saves one" 1 predicted.num_transfers;
  check_le "oracle run is cheaper" predicted.total_cost standard.total_cost

let oracle_cuts_wasted_tails () =
  (* single visits only: every speculative tail is wasted; the oracle
     (predicting no revisit ever) shrinks each to beta * delta_t *)
  let model = Cost_model.unit in
  let seq = Sequence.of_list ~m:4 [ (1, 1.0); (2, 4.0); (3, 7.0) ] in
  let standard = Online_sc.run model seq in
  let predicted = Online_predictive.run ~beta:0.25 (Online_predictive.oracle seq) model seq in
  check_le "tails shrink" predicted.caching_cost standard.caching_cost;
  Alcotest.(check bool) "strictly cheaper" true
    (predicted.total_cost < standard.total_cost -. 0.1)

let predictive_feasible =
  qcheck ~count:200 "predictive: runs render to feasible schedules costing the reported total"
    (nonempty_problem_arbitrary ())
    (fun { model; seq } ->
      let run =
        Online_predictive.run ~beta:0.5 ~record_events:true (Online_predictive.oracle seq) model seq
      in
      let sched = Online_sc.schedule_of_run seq run in
      (match Schedule.validate seq sched with Ok () -> true | Error _ -> false)
      && approx ~eps:1e-6 (Schedule.cost model sched) run.total_cost)

let predictive_at_least_opt =
  qcheck ~count:200 "predictive: even perfect predictions never beat the offline optimum"
    (nonempty_problem_arbitrary ())
    (fun { model; seq } ->
      let run = Online_predictive.run ~beta:0.5 (Online_predictive.oracle seq) model seq in
      Dcache_prelude.Float_cmp.approx_le (opt model seq) run.total_cost)

let noisy_zero_error_is_oracle =
  qcheck ~count:100 "predictive: zero-noise predictor equals the oracle"
    (nonempty_problem_arbitrary ())
    (fun { model; seq } ->
      let rng = Dcache_prelude.Rng.create 5 in
      let a = Online_predictive.run (Online_predictive.oracle seq) model seq in
      let b =
        Online_predictive.run (Online_predictive.noisy ~rng ~relative_error:0.0 seq) model seq
      in
      approx ~eps:1e-9 a.total_cost b.total_cost)

let frequency_predictor_feasible =
  qcheck ~count:150 "predictive: the log-mining predictor stays feasible"
    (nonempty_problem_arbitrary ())
    (fun { model; seq } ->
      let run =
        Online_predictive.run ~record_events:true (Online_predictive.frequency seq) model seq
      in
      let sched = Online_sc.schedule_of_run seq run in
      (match Schedule.validate seq sched with Ok () -> true | Error _ -> false)
      && Dcache_prelude.Float_cmp.approx_le (opt model seq) run.total_cost)

let oracle_prediction_values () =
  let seq = Sequence.of_list ~m:3 [ (1, 1.0); (2, 2.0); (1, 3.5) ] in
  let p = Online_predictive.oracle seq in
  (match p ~server:1 ~time:1.0 with
  | Some d -> check_float "next s1 visit" 2.5 d
  | None -> Alcotest.fail "expected a prediction");
  (match p ~server:1 ~time:3.5 with
  | Some d when d = infinity -> ()
  | Some _ | None -> Alcotest.fail "no s1 request after 3.5: expected known-never");
  match p ~server:0 ~time:0.5 with
  | Some d when d = infinity -> ()
  | Some _ | None -> Alcotest.fail "server 0: expected known-never"

let rejects_bad_beta () =
  let seq = Sequence.of_list ~m:2 [ (1, 1.0) ] in
  List.iter
    (fun beta ->
      Alcotest.(check bool) "bad beta" true
        (try
           ignore (Online_predictive.run ~beta blank Cost_model.unit seq);
           false
         with Invalid_argument _ -> true))
    [ 0.0; -0.5; 1.5 ]

let suite =
  [
    blank_equals_standard;
    case "predictive: oracle saves the just-too-late transfer" oracle_beats_standard_on_crafted_instance;
    case "predictive: oracle cuts wasted tails" oracle_cuts_wasted_tails;
    predictive_feasible;
    predictive_at_least_opt;
    noisy_zero_error_is_oracle;
    frequency_predictor_feasible;
    case "predictive: oracle lookahead values" oracle_prediction_values;
    case "predictive: rejects beta outside (0,1]" rejects_bad_beta;
  ]
