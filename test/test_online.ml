(* Tests for the online Speculative Caching algorithm (Contribution 2)
   and the Double-Transfer analysis machinery. *)

open Dcache_core
open Helpers

let unit = Cost_model.unit

let opt model seq = Offline_dp.cost (Offline_dp.solve model seq)

(* --------------------------------------------------------- basic serving *)

let serves_within_window_by_cache () =
  (* second request on the same server within lambda/mu of the first *)
  let seq = Sequence.of_list ~m:2 [ (1, 1.0); (1, 1.8) ] in
  let run = Online_sc.run unit seq in
  (match run.serves.(1) with
  | Online_sc.By_transfer 0 -> ()
  | _ -> Alcotest.fail "r1 should be a transfer from s0");
  (match run.serves.(2) with
  | Online_sc.By_cache -> ()
  | _ -> Alcotest.fail "r2 arrives inside the window: cache");
  Alcotest.(check int) "one transfer" 1 run.num_transfers

let window_boundary_is_closed () =
  (* the paper's window is the closed interval [t, t + delta_t] *)
  let seq = Sequence.of_list ~m:2 [ (1, 1.0); (1, 2.0) ] in
  let run = Online_sc.run unit seq in
  match run.serves.(2) with
  | Online_sc.By_cache -> ()
  | _ -> Alcotest.fail "arrival exactly at expiry must still hit"

let expired_copy_forces_transfer () =
  let seq = Sequence.of_list ~m:3 [ (1, 1.0); (2, 1.5); (1, 4.0) ] in
  let run = Online_sc.run unit seq in
  match run.serves.(3) with
  | Online_sc.By_transfer src -> Alcotest.(check int) "from the most recent copy (s2)" 2 src
  | Online_sc.By_cache -> Alcotest.fail "copy on s1 expired at 2.0, r3 at 4.0 must transfer"

let transfer_source_is_previous_request_server () =
  let seq = Sequence.of_list ~m:4 [ (1, 1.0); (2, 5.0); (3, 9.0) ] in
  let run = Online_sc.run unit seq in
  (match run.serves.(2) with
  | Online_sc.By_transfer 1 -> ()
  | _ -> Alcotest.fail "source must be s1 (r1's server)");
  match run.serves.(3) with
  | Online_sc.By_transfer 2 -> ()
  | _ -> Alcotest.fail "source must be s2 (r2's server)"

let last_copy_survives_long_gaps () =
  (* a single copy must never disappear, however long the silence *)
  let seq = Sequence.of_list ~m:2 [ (1, 1.0); (0, 1000.0) ] in
  let run = Online_sc.run unit seq in
  (match run.serves.(2) with
  | Online_sc.By_transfer 1 -> ()
  | _ -> Alcotest.fail "served from the surviving last copy on s1");
  (* cost: bridge caching is charged in full *)
  Alcotest.(check bool) "bridge caching accounted" true (run.caching_cost > 999.0)

let observation4_same_server_case () =
  (* t_{p'(i)} = t_{i-1} on the same server: even past the window, the
     local copy was the most recent and is served locally *)
  let seq = Sequence.of_list ~m:2 [ (1, 1.0); (1, 10.0) ] in
  let run = Online_sc.run unit seq in
  match run.serves.(2) with
  | Online_sc.By_cache -> ()
  | _ -> Alcotest.fail "Observation 4 case 2b: local extended copy serves"

(* ------------------------------------------------------ cost accounting *)

let cost_single_transfer_trace () =
  (* initial copy on s0; r1 on s1 at t=1; horizon 1.0.
     SC: cache s0 [0,1] (cost 1), transfer (1), copy s1 truncated at
     horizon (0).  Wait: s0 is refreshed as source at t=1 but also
     truncated.  Total = 1 + 1. *)
  let seq = Sequence.of_list ~m:2 [ (1, 1.0) ] in
  let run = Online_sc.run unit seq in
  check_float "caching" 1.0 run.caching_cost;
  check_float "transfer" 1.0 run.transfer_cost;
  check_float "total" 2.0 run.total_cost

let cost_speculative_tail_charged () =
  (* copy on s1 expires unused before r2 far away: its full window is
     paid.  trace: r1 (s1, 1.0), r2 (s0, 5.0).
     s0: [0, 5.0] alive the whole time? s0 expires at 1+1=2 (refreshed
     as source at 1.0) -> pair with s1 at 2.0, target s1 survives,
     s0 dies at 2.0.  s1 extended till r2, refreshed as source at 5.0.
     caching: s0 [0,2] = 2; s1 [1,5] = 4; total 6 + 2 transfers. *)
  let seq = Sequence.of_list ~m:2 [ (1, 1.0); (0, 5.0) ] in
  let run = Online_sc.run unit seq in
  check_float "caching" 6.0 run.caching_cost;
  Alcotest.(check int) "transfers" 2 run.num_transfers;
  check_float "total" 8.0 run.total_cost

let segments_partition_caching_cost =
  qcheck ~count:300 "online: segment durations sum to the caching cost"
    (nonempty_problem_arbitrary ())
    (fun { model; seq } ->
      let run = Online_sc.run ~record_events:true model seq in
      let total =
        List.fold_left
          (fun acc (s : Online_sc.segment) ->
            acc +. (model.Cost_model.mu *. (s.deactivated -. s.activated)))
          0.0 run.segments
      in
      approx ~eps:1e-6 total run.caching_cost)

let tails_bounded_by_window =
  qcheck ~count:300 "online: every speculative tail is at most the window (omega <= lambda)"
    (nonempty_problem_arbitrary ())
    (fun { model; seq } ->
      let run = Online_sc.run ~record_events:true model seq in
      let delta_t = Cost_model.delta_t model in
      List.for_all (fun (s : Online_sc.segment) -> s.tail <= delta_t +. 1e-9) run.segments)

let schedule_of_run_valid =
  qcheck ~count:300 "online: the SC run renders to a feasible schedule of equal cost"
    (nonempty_problem_arbitrary ())
    (fun { model; seq } ->
      let run = Online_sc.run ~record_events:true model seq in
      let sched = Online_sc.schedule_of_run seq run in
      (match Schedule.validate seq sched with Ok () -> true | Error _ -> false)
      && approx ~eps:1e-6 (Schedule.cost model sched) run.total_cost)

(* ------------------------------------------------------- competitiveness *)

let three_competitive_random =
  qcheck ~count:400 "online: Pi(SC) <= 3 Pi(OPT) on random instances (Theorem 3)"
    (nonempty_problem_arbitrary ())
    (fun { model; seq } ->
      let run = Online_sc.run model seq in
      Dcache_prelude.Float_cmp.approx_le run.total_cost
        (Online_sc.competitive_bound *. opt model seq))

let three_competitive_adversarial () =
  let model = Cost_model.make ~mu:1.0 ~lambda:2.0 () in
  List.iter
    (fun (name, seq) ->
      let run = Online_sc.run model seq in
      let ratio = run.total_cost /. opt model seq in
      if ratio > 3.0 +. 1e-9 then Alcotest.failf "%s: ratio %.4f exceeds 3" name ratio)
    (Dcache_workload.Adversary.all model ~m:5 ~n:300)

let three_competitive_with_epochs =
  qcheck ~count:200 "online: the bound also holds with small epochs"
    (nonempty_problem_arbitrary ())
    (fun { model; seq } ->
      let run = Online_sc.run ~epoch_size:3 model seq in
      Dcache_prelude.Float_cmp.approx_le run.total_cost
        (Online_sc.competitive_bound *. opt model seq))

let sc_at_least_opt =
  qcheck ~count:300 "online: SC never beats the offline optimum"
    (nonempty_problem_arbitrary ())
    (fun { model; seq } ->
      Dcache_prelude.Float_cmp.approx_le (opt model seq) (Online_sc.run model seq).total_cost)

(* ---------------------------------------------------------------- epochs *)

let epoch_reset_drops_copies () =
  let model, seq = ( Cost_model.unit,
                     Sequence.of_list ~m:3 [ (1, 0.5); (2, 0.7); (1, 0.9) ] ) in
  let with_epochs = Online_sc.run ~epoch_size:2 ~record_events:true model seq in
  Alcotest.(check bool) "a reset happened" true
    (List.exists
       (function Online_sc.Epoch_reset _ -> true | _ -> false)
       with_epochs.events);
  Alcotest.(check int) "epoch count" 2 with_epochs.num_epochs

let epoching_never_cheaper_than_unbounded () =
  (* resetting throws copies away; on a trace that reuses them the
     single-epoch run should not cost more *)
  let model = Cost_model.unit in
  let seq =
    Sequence.of_list ~m:3 [ (1, 0.5); (2, 0.7); (1, 0.9); (2, 1.1); (1, 1.3); (2, 1.5) ]
  in
  let unbounded = Online_sc.run model seq in
  let epoched = Online_sc.run ~epoch_size:1 model seq in
  check_le "unbounded <= epoch-1" unbounded.total_cost epoched.total_cost

let rejects_bad_arguments () =
  let seq = Sequence.of_list ~m:2 [ (1, 1.0) ] in
  Alcotest.(check bool) "epoch_size 0" true
    (try ignore (Online_sc.run ~epoch_size:0 unit seq); false with Invalid_argument _ -> true);
  Alcotest.(check bool) "window 0" true
    (try ignore (Online_sc.run ~window:0.0 unit seq); false with Invalid_argument _ -> true)

let window_override_changes_behaviour () =
  let seq = Sequence.of_list ~m:2 [ (1, 1.0); (1, 2.5) ] in
  (* default window 1.0: r2 misses; window 2.0: r2 hits *)
  let narrow = Online_sc.run unit seq in
  let wide = Online_sc.run ~window:2.0 unit seq in
  Alcotest.(check int) "narrow window: 1 transfer... plus re-transfer" 1 narrow.num_transfers;
  (match wide.serves.(2) with
  | Online_sc.By_cache -> ()
  | _ -> Alcotest.fail "wide window should hit");
  ()

let fig7_instance_consistent () =
  (* the paper's Fig. 7 walkthrough instance: the SC run must honour
     the counted-transfer total-cost identity and stay 3-competitive *)
  let model, seq = Dcache_experiments.Instances.fig7 () in
  let run = Online_sc.run model seq in
  Alcotest.(check bool) "at least one transfer" true (run.num_transfers >= 1);
  check_float "total = caching + counted transfers" run.total_cost
    (Cost_model.add model ~caching:run.caching_cost ~transfers:run.num_transfers);
  Dcache_prelude.Float_cmp.approx_le run.total_cost
    (Online_sc.competitive_bound *. opt model seq)
  |> Alcotest.(check bool) "3-competitive" true

(* ---------------------------------------------------- double transfer *)

let dt_cost_equality =
  qcheck ~count:300 "DT: Pi(DT) = Pi(SC) (Definition 10)" (nonempty_problem_arbitrary ())
    (fun { model; seq } ->
      let run = Online_sc.run ~record_events:true model seq in
      let dt = Double_transfer.of_run model run in
      approx ~eps:1e-6 dt.dt_cost dt.sc_cost)

let dt_weights_bounded =
  qcheck ~count:300 "DT: every folded transfer weight is in [lambda, 2 lambda]"
    (nonempty_problem_arbitrary ())
    (fun { model; seq } ->
      let run = Online_sc.run ~record_events:true model seq in
      let dt = Double_transfer.of_run model run in
      List.for_all
        (fun (w : Double_transfer.weighted_transfer) ->
          w.weight >= model.Cost_model.lambda -. 1e-9
          && w.weight <= (2.0 *. model.Cost_model.lambda) +. 1e-9)
        dt.transfers)

let dt_transfer_count_matches =
  qcheck ~count:200 "DT: one weighted transfer per SC transfer"
    (nonempty_problem_arbitrary ())
    (fun { model; seq } ->
      let run = Online_sc.run ~record_events:true model seq in
      let dt = Double_transfer.of_run model run in
      List.length dt.transfers = run.num_transfers)

let reduction_chain =
  qcheck ~count:300 "DT: the Theorem 3 chain (reductions, Lemmas 7-8) holds"
    (nonempty_problem_arbitrary ())
    (fun { model; seq } ->
      let run = Online_sc.run ~record_events:true model seq in
      Double_transfer.theorem3_holds model seq run ~opt_cost:(opt model seq))

let reduction_amounts_nonnegative =
  qcheck ~count:200 "DT: reduction amounts are non-negative and n' <= n"
    (nonempty_problem_arbitrary ())
    (fun { model; seq } ->
      let red =
        Double_transfer.reduce model seq ~sc_cost:(Online_sc.run model seq).total_cost
          ~opt_cost:(opt model seq)
      in
      red.v_amount >= 0.0 && red.h_amount >= 0.0 && red.n' >= 0 && red.n' <= Sequence.n seq)

let lemma5_single_cacher_on_wide_gaps =
  qcheck ~count:200 "DT/Lemma 5: on gaps wider than the window, OPT caches exactly one copy"
    (nonempty_problem_arbitrary ())
    (fun { model; seq } ->
      let sched = Offline_dp.schedule (Offline_dp.solve model seq) in
      let delta_t = Cost_model.delta_t model in
      let ok = ref true in
      for i = 1 to Sequence.n seq do
        let a = Sequence.time seq (i - 1) and b = Sequence.time seq i in
        if b -. a > delta_t +. 1e-9 then begin
          let midpoint = (a +. b) /. 2.0 in
          if Schedule.num_copies_at sched midpoint <> 1 then ok := false
        end
      done;
      !ok)

let lemma6_short_intervals_cached =
  qcheck ~count:200
    "DT/Lemma 6: requests with mu*sigma < lambda are served by their own cache in OPT"
    (nonempty_problem_arbitrary ())
    (fun { model; seq } ->
      let sched = Offline_dp.schedule (Offline_dp.solve model seq) in
      let ok = ref true and prev = Sequence.prevs seq in
      for i = 1 to Sequence.n seq do
        let musig = model.Cost_model.mu *. sigma seq prev i in
        if musig < model.Cost_model.lambda -. 1e-9 then begin
          let p = prev.(i) in
          let covered =
            List.exists
              (fun c ->
                c.Schedule.server = Sequence.server seq i
                && Dcache_prelude.Float_cmp.approx_le c.Schedule.from_time (Sequence.time seq p)
                && Dcache_prelude.Float_cmp.approx_le (Sequence.time seq i) c.Schedule.to_time)
              (Schedule.caches sched)
          in
          if not covered then ok := false
        end
      done;
      !ok)

(* ----------------------------------------------- reference implementation *)

(* The SC configurations the oracle compares: the paper's window,
   epochs, an overridden window (in multiples of lambda / mu), and the
   per-refresh windows of Online_predictive. *)
type sc_variant = Default | Epochs of int | Window of float | Predictive

let variant_print = function
  | Default -> "default"
  | Epochs k -> Printf.sprintf "epoch_size %d" k
  | Window w -> Printf.sprintf "window %g * lambda/mu" w
  | Predictive -> "predictive window policy"

let variant_gen =
  QCheck.Gen.(
    oneof
      [
        return Default;
        map (fun k -> Epochs k) (int_range 1 4);
        map (fun w -> Window w) (float_range 0.05 3.0);
        return Predictive;
      ])

(* Online_predictive's policy at beta = 0.5 with the oracle predictor:
   windows vary per refresh, so the fallback transfer source is hit *)
let predictive_policy model seq =
  let predictor = Online_predictive.oracle seq in
  let delta_t = Cost_model.delta_t model and beta = 0.5 in
  let pad = 1e-9 *. delta_t in
  fun ~server ~time ->
    match predictor ~server ~time with
    | None -> delta_t
    | Some predicted ->
        if predicted <= delta_t /. beta then
          Float.min (delta_t /. beta) (Float.max pad (predicted +. pad))
        else beta *. delta_t

let variant_args variant model seq =
  match variant with
  | Default -> (None, None, None)
  | Epochs k -> (Some k, None, None)
  | Window w -> (None, Some (w *. Cost_model.delta_t model), None)
  | Predictive -> (None, None, Some (predictive_policy model seq))

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_outcome (a : Online_sc.run) (b : Online_sc.run) =
  same_float a.total_cost b.total_cost
  && same_float a.caching_cost b.caching_cost
  && same_float a.transfer_cost b.transfer_cost
  && a.num_transfers = b.num_transfers
  && a.num_epochs = b.num_epochs
  && a.serves = b.serves

let prefix_costs_agree ?epoch_size ?window ?window_policy model seq =
  let m = Sequence.m seq in
  let fast = Online_sc.Incremental.create ?epoch_size ?window ?window_policy model ~m in
  let slow = Sc_reference.Incremental.create ?epoch_size ?window ?window_policy model ~m in
  let ok = ref true in
  for i = 1 to Sequence.n seq do
    let server = Sequence.server seq i and time = Sequence.time seq i in
    Online_sc.Incremental.feed fast ~server ~time;
    Sc_reference.Incremental.feed slow ~server ~time;
    if
      not
        (same_float (Online_sc.Incremental.cost_so_far fast)
           (Sc_reference.Incremental.cost_so_far slow))
    then ok := false
  done;
  !ok

let agrees_with_reference =
  qcheck ~count:500 "sc: agrees with the reference implementation bit for bit"
    (QCheck.make
       ~print:(fun (p, v) -> problem_print p ^ ", " ^ variant_print v)
       (QCheck.Gen.pair (problem_gen ~max_m:8 ~max_n:60 ()) variant_gen))
    (fun (p, variant) ->
      let epoch_size, window, window_policy = variant_args variant p.model p.seq in
      let run ?record_events () =
        Online_sc.run ?epoch_size ?record_events ?window ?window_policy p.model p.seq
      and reference ?record_events () =
        Sc_reference.run ?epoch_size ?record_events ?window ?window_policy p.model p.seq
      in
      let plain = run () and recorded = run ~record_events:true () in
      let reference_plain = reference ()
      and reference_recorded = reference ~record_events:true () in
      same_outcome plain reference_plain
      && plain.events = [] && plain.segments = []
      && same_outcome recorded reference_recorded
      && recorded.events = reference_recorded.events
      && recorded.segments = reference_recorded.segments
      && prefix_costs_agree ?epoch_size ?window ?window_policy p.model p.seq)

(* [online_sc.evictions] counts every closed copy, whether or not the
   run keeps the segments *)
let evictions_count_closed_copies () =
  let module Obs = Dcache_obs.Obs in
  let evictions = Obs.counter "online_sc.evictions" in
  let seq =
    Dcache_workload.Generator.generate_seeded ~seed:3
      {
        m = 16;
        n = 2000;
        arrival = Dcache_workload.Arrival.Pareto { shape = 1.5; scale = 0.25 };
        placement = Dcache_workload.Placement.Uniform_random;
      }
  in
  Obs.set_sink (Obs.Recording (Obs.recorder ()));
  Fun.protect
    ~finally:(fun () ->
      Obs.set_sink Obs.Noop;
      Obs.reset ())
    (fun () ->
      List.iter
        (fun epoch_size ->
          Obs.reset ();
          let recorded = Online_sc.run ?epoch_size ~record_events:true unit seq in
          let with_segments = Obs.counter_value evictions in
          Obs.reset ();
          ignore (Online_sc.run ?epoch_size unit seq);
          Alcotest.(check int) "recorded run" (List.length recorded.segments) with_segments;
          Alcotest.(check int) "unrecorded run" with_segments (Obs.counter_value evictions))
        [ None; Some 5 ])

(* -------------------------------------------------- allocation budgets *)

(* Both budgets sit less than 2 words above the measured figure, so a
   2-word allocation per request (a boxed float, a [Some], a [ref])
   fails them.  Each also runs with epochs of 5 transfers, which
   covers the epoch-reset loop. *)

(* the unrecorded run keeps per request only its [serves], which it
   fills as it feeds: 1.01-1.04 words.  It reads the time column in
   place and runs [Incremental.feed] inlined, so no time is boxed.
   The budget of 1.75 also fails on a second serve array *)
let run_allocation_budget () =
  List.iter
    (fun (name, seq) ->
      List.iter
        (fun epoch_size ->
          let words =
            words_per_request ~n:budget_n (fun () -> Online_sc.run ?epoch_size unit seq)
          in
          if words > 1.75 then
            Alcotest.failf "Online_sc.run on %s allocates %.2f words/request (budget 1.75)" name
              words)
        [ None; Some 5 ])
    (budget_workloads ())

(* two of the three words are the loop's own boxed [time] *)
let feed_allocation_budget () =
  List.iter
    (fun (name, seq) ->
      List.iter
        (fun epoch_size ->
          let inc = Online_sc.Incremental.create ?epoch_size unit ~m:(Sequence.m seq) in
          let before = Gc.minor_words () in
          for i = 1 to Sequence.n seq do
            Online_sc.Incremental.feed inc ~server:(Sequence.server seq i)
              ~time:(Sequence.time seq i)
          done;
          let words = (Gc.minor_words () -. before) /. float_of_int budget_n in
          if words > 3.0 then
            Alcotest.failf
              "a loop over Incremental.feed on %s allocates %.2f minor words/request (budget 3)"
              name words)
        [ None; Some 5 ])
    (budget_workloads ())

(* The online path in the bench ledger's order (dcache online on a
   trace file): read, SC, then the optimum.  5.45-5.48 words: the
   read 2.43, Online_sc.run 1.01-1.04 and Offline_dp.solve 2.00-2.01,
   each also budgeted on its own.  The budget of 6.25 fails on one
   more word per request anywhere on the path, such as C back in the
   rows, a copy of the times or a second serve array. *)
let online_path_budget () =
  List.iter
    (fun (name, seq) ->
      let words =
        with_temp_file (Dcache_workload.Trace_io.to_string seq) (fun filename ->
            words_per_request ~n:budget_n (fun () ->
                match Dcache_workload.Trace_io.read ~filename ~m:(Sequence.m seq) with
                | Error msg -> Alcotest.fail msg
                | Ok seq ->
                    ignore (Sys.opaque_identity (Online_sc.run unit seq));
                    Offline_dp.solve unit seq))
      in
      if words > 6.25 then
        Alcotest.failf "the online path on %s allocates %.2f words/request (budget 6.25)" name words)
    (budget_workloads ())

(* A loop over Incremental.feed and its finish, all words counted:
   2.01-2.03 per request, 2 of them the loop's boxed [time].  The state
   keeps the last request's serve only, so a serve log (1 word per
   request, and 1 more for finish's copy) breaks the budget of 2.75. *)
let incremental_keeps_no_serve_log () =
  List.iter
    (fun (name, seq) ->
      List.iter
        (fun epoch_size ->
          let words =
            words_per_request ~n:budget_n (fun () ->
                let inc = Online_sc.Incremental.create ?epoch_size unit ~m:(Sequence.m seq) in
                for i = 1 to Sequence.n seq do
                  Online_sc.Incremental.feed inc ~server:(Sequence.server seq i)
                    ~time:(Sequence.time seq i)
                done;
                Online_sc.Incremental.finish inc)
          in
          if words > 2.75 then
            Alcotest.failf
              "a loop over Incremental.feed and its finish on %s allocates %.2f words/request \
               (budget 2.75)"
              name words)
        [ None; Some 5 ])
    (budget_workloads ())

let suite =
  [
    case "sc: within-window request served by cache" serves_within_window_by_cache;
    case "sc: window boundary is closed" window_boundary_is_closed;
    case "sc: expired copy forces a transfer" expired_copy_forces_transfer;
    case "sc: transfer source is r_{i-1}'s server" transfer_source_is_previous_request_server;
    case "sc: last copy survives arbitrarily long gaps" last_copy_survives_long_gaps;
    case "sc: Observation 4, same-server extended copy" observation4_same_server_case;
    case "sc: cost of a single-transfer trace" cost_single_transfer_trace;
    case "sc: speculative tails are charged" cost_speculative_tail_charged;
    segments_partition_caching_cost;
    tails_bounded_by_window;
    schedule_of_run_valid;
    three_competitive_random;
    case "sc: 3-competitive on adversarial families" three_competitive_adversarial;
    three_competitive_with_epochs;
    sc_at_least_opt;
    case "sc: epoch reset drops foreign copies" epoch_reset_drops_copies;
    case "sc: tiny epochs never help" epoching_never_cheaper_than_unbounded;
    case "sc: rejects bad arguments" rejects_bad_arguments;
    case "sc: window override changes serving" window_override_changes_behaviour;
    case "sc: fig7 instance is consistent" fig7_instance_consistent;
    dt_cost_equality;
    dt_weights_bounded;
    dt_transfer_count_matches;
    reduction_chain;
    reduction_amounts_nonnegative;
    lemma5_single_cacher_on_wide_gaps;
    lemma6_short_intervals_cached;
    agrees_with_reference;
    case "sc: evictions count every closed copy" evictions_count_closed_copies;
    case "sc: Online_sc.run allocation budget" run_allocation_budget;
    case "sc: Incremental.feed allocation budget" feed_allocation_budget;
    case "sc: the online path stays within its budget" online_path_budget;
    case "sc: an incremental state keeps no serve log" incremental_keeps_no_serve_log;
  ]
