(* Cross-cutting invariants: SC run structure, epochs, DT under
   epoching, metrics, heterogeneous price closure, and formatter
   smoke tests. *)

open Dcache_core
open Helpers
module Sim = Dcache_sim

let opt model seq = Offline_dp.cost (Offline_dp.solve model seq)

(* ----------------------------------------------------- SC run structure *)

let transfer_count_matches_serves =
  qcheck ~count:200 "sc: num_transfers equals the number of By_transfer serves"
    (nonempty_problem_arbitrary ())
    (fun { model; seq } ->
      let run = Online_sc.run model seq in
      let counted =
        Array.fold_left
          (fun acc k -> match k with Online_sc.By_transfer _ -> acc + 1 | Online_sc.By_cache -> acc)
          (-1) (* index 0 is a dummy By_cache *)
          run.serves
      in
      counted + 1 = run.num_transfers)

let segments_by_transfer_flags =
  qcheck ~count:200 "sc: exactly one segment is the initial (non-transfer) copy"
    (nonempty_problem_arbitrary ())
    (fun { model; seq } ->
      let run = Online_sc.run ~record_events:true model seq in
      List.length (List.filter (fun s -> not s.Online_sc.by_transfer) run.segments) = 1)

let segments_nonoverlapping_per_server =
  qcheck ~count:200 "sc: copy lifetimes on one server never overlap"
    (nonempty_problem_arbitrary ())
    (fun { model; seq } ->
      let run = Online_sc.run ~record_events:true model seq in
      let by_server = Hashtbl.create 8 in
      List.iter
        (fun s ->
          let xs = Option.value ~default:[] (Hashtbl.find_opt by_server s.Online_sc.seg_server) in
          Hashtbl.replace by_server s.Online_sc.seg_server (s :: xs))
        run.segments;
      Hashtbl.fold
        (fun _ segs acc ->
          acc
          &&
          let sorted =
            List.sort (fun a b -> Float.compare a.Online_sc.activated b.Online_sc.activated) segs
          in
          let rec ok = function
            | a :: (b :: _ as rest) ->
                a.Online_sc.deactivated <= b.Online_sc.activated +. 1e-9 && ok rest
            | _ -> true
          in
          ok sorted)
        by_server true)

let epoch_counting () =
  let model = Cost_model.unit in
  (* each remote request is a transfer; epoch size 2 -> reset after
     every second transfer *)
  let seq = Sequence.of_list ~m:3 [ (1, 0.1); (2, 0.2); (1, 5.0); (2, 5.1); (1, 9.0) ] in
  let run = Online_sc.run ~epoch_size:2 ~record_events:true model seq in
  let resets =
    List.length (List.filter (function Online_sc.Epoch_reset _ -> true | _ -> false) run.events)
  in
  Alcotest.(check int) "five transfers, two resets" 2 resets;
  Alcotest.(check int) "epoch count = resets + current" 3 run.num_epochs

let dt_with_epochs =
  qcheck ~count:150 "dt: Pi(DT) = Pi(SC) holds for epoched runs too"
    (nonempty_problem_arbitrary ())
    (fun { model; seq } ->
      let run = Online_sc.run ~epoch_size:2 ~record_events:true model seq in
      let dt = Double_transfer.of_run model run in
      approx ~eps:1e-6 dt.dt_cost dt.sc_cost
      && Dcache_prelude.Float_cmp.approx_le run.total_cost
           (Online_sc.competitive_bound *. opt model seq))

(* ---------------------------------------------------------------- engine *)

let engine_copy_time_consistent =
  qcheck ~count:150 "engine: copy-time integral times mu equals the caching bill (uniform mu)"
    (nonempty_problem_arbitrary ())
    (fun { model; seq } ->
      let r = Sim.Engine.run (module Sim.Sc_policy) model seq in
      approx ~eps:1e-6 (model.Cost_model.mu *. r.metrics.copy_time) r.metrics.caching_cost)

let engine_peak_at_least_one =
  qcheck ~count:100 "engine: at least one copy is always resident"
    (nonempty_problem_arbitrary ())
    (fun { model; seq } ->
      let r = Sim.Engine.run (module Sim.Sc_policy) model seq in
      r.metrics.peak_copies >= 1
      && r.metrics.cache_hits + r.metrics.cache_misses = Sequence.n seq)

let metrics_hit_ratio_edges () =
  let base =
    {
      Sim.Metrics.caching_cost = 0.;
      transfer_cost = 0.;
      upload_cost = 0.;
      total_cost = 0.;
      num_transfers = 0;
      num_uploads = 0;
      cache_hits = 0;
      cache_misses = 0;
      peak_copies = 0;
      copy_time = 0.;
    }
  in
  (* regression: an empty run used to yield nan, which poisoned any
     aggregate the ratio flowed into — the contract is now 0. *)
  check_float "no requests -> 0, never nan" 0.0 (Sim.Metrics.hit_ratio base);
  Alcotest.(check bool) "no requests ratio is not nan" false
    (Float.is_nan (Sim.Metrics.hit_ratio base));
  check_float "all hits" 1.0 (Sim.Metrics.hit_ratio { base with cache_hits = 5 });
  check_float "half" 0.5 (Sim.Metrics.hit_ratio { base with cache_hits = 2; cache_misses = 2 });
  (* formatter smoke *)
  Alcotest.(check bool) "pp emits" true
    (String.length (Format.asprintf "%a" Sim.Metrics.pp base) > 0)

(* ---------------------------------------------------- hetero price closure *)

let closure_triangle =
  qcheck ~count:100 "hetero: closed prices satisfy the triangle inequality"
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 1 100000))
    (fun seed ->
      let rng = Dcache_prelude.Rng.create seed in
      let m = 4 in
      let lambda =
        Array.init m (fun i ->
            Array.init m (fun j -> if i = j then 0.0 else Dcache_prelude.Rng.float_in rng 0.1 5.0))
      in
      let mu = Array.make m 1.0 in
      let c = Dcache_baselines.Hetero_dp.make_costs_exn ~mu ~lambda in
      let ok = ref true in
      for i = 0 to m - 1 do
        for j = 0 to m - 1 do
          for k = 0 to m - 1 do
            if i <> j && j <> k && i <> k then begin
              let direct = Dcache_baselines.Hetero_dp.lambda_of c ~src:i ~dst:k in
              let via =
                Dcache_baselines.Hetero_dp.lambda_of c ~src:i ~dst:j
                +. Dcache_baselines.Hetero_dp.lambda_of c ~src:j ~dst:k
              in
              if direct > via +. 1e-9 then ok := false
            end
          done
        done
      done;
      !ok)

let closure_never_increases =
  qcheck ~count:100 "hetero: closure never raises a price"
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 1 100000))
    (fun seed ->
      let rng = Dcache_prelude.Rng.create seed in
      let m = 4 in
      let raw =
        Array.init m (fun i ->
            Array.init m (fun j -> if i = j then 0.0 else Dcache_prelude.Rng.float_in rng 0.1 5.0))
      in
      let c =
        Dcache_baselines.Hetero_dp.make_costs_exn ~mu:(Array.make m 1.0)
          ~lambda:(Array.map Array.copy raw)
      in
      let ok = ref true in
      for i = 0 to m - 1 do
        for j = 0 to m - 1 do
          if i <> j && Dcache_baselines.Hetero_dp.lambda_of c ~src:i ~dst:j > raw.(i).(j) +. 1e-9
          then ok := false
        done
      done;
      !ok)

(* ------------------------------------------------------------ formatters *)

let formatters_smoke () =
  let seq = fig6 () in
  let sched = Offline_dp.schedule (Offline_dp.solve Cost_model.unit seq) in
  Alcotest.(check bool) "schedule pp emits" true
    (String.length (Format.asprintf "%a" Schedule.pp sched) > 0)

(* ----------------------------------------------------- predictive window *)

let predictive_respects_caps =
  qcheck ~count:150 "predictive: realised windows never exceed delta_t / beta"
    (nonempty_problem_arbitrary ())
    (fun { model; seq } ->
      let beta = 0.5 in
      let run =
        Online_predictive.run ~beta ~record_events:true (Online_predictive.oracle seq) model seq
      in
      let cap = Cost_model.delta_t model /. beta in
      (* a copy's unused tail is bounded by its final window *)
      List.for_all (fun s -> s.Online_sc.tail <= cap +. 1e-6) run.segments)


(* ----------------------------------------------------- epoch analysis *)

let epoch_costs_sum_to_total =
  qcheck ~count:150 "epochs: per-epoch SC costs sum to the run total"
    (nonempty_problem_arbitrary ())
    (fun { model; seq } ->
      let epochs = Epoch_analysis.analyse ~epoch_size:3 model seq in
      let total = List.fold_left (fun acc e -> acc +. e.Epoch_analysis.sc_cost) 0.0 epochs in
      approx ~eps:1e-6 total (Online_sc.run ~epoch_size:3 model seq).total_cost)

let epoch_ratios_bounded =
  qcheck ~count:150 "epochs: every per-epoch ratio respects the factor-3 bound"
    (nonempty_problem_arbitrary ())
    (fun { model; seq } ->
      let epochs = Epoch_analysis.analyse ~epoch_size:3 model seq in
      Epoch_analysis.max_ratio epochs <= 3.0 +. 1e-9)

let epoch_windows_partition () =
  let model = Cost_model.unit in
  let seq = Sequence.of_list ~m:3 [ (1, 0.1); (2, 0.2); (1, 5.0); (2, 5.1); (1, 9.0) ] in
  let epochs = Epoch_analysis.analyse ~epoch_size:2 model seq in
  Alcotest.(check int) "three epochs" 3 (List.length epochs);
  check_float "first starts at 0" 0.0 (List.hd epochs).Epoch_analysis.start_time;
  let total_requests =
    List.fold_left (fun acc e -> acc + e.Epoch_analysis.requests) 0 epochs
  in
  Alcotest.(check int) "every request in exactly one epoch" 5 total_requests;
  (* windows chain: each epoch ends where the next begins *)
  let rec chained = function
    | a :: (b :: _ as rest) ->
        approx a.Epoch_analysis.end_time b.Epoch_analysis.start_time && chained rest
    | _ -> true
  in
  Alcotest.(check bool) "windows chain" true (chained epochs)

let suite =
  [
    transfer_count_matches_serves;
    segments_by_transfer_flags;
    segments_nonoverlapping_per_server;
    case "sc: epoch counting" epoch_counting;
    dt_with_epochs;
    engine_copy_time_consistent;
    engine_peak_at_least_one;
    case "metrics: hit-ratio edge cases" metrics_hit_ratio_edges;
    closure_triangle;
    closure_never_increases;
    case "formatters: smoke" formatters_smoke;
    predictive_respects_caps;
    epoch_costs_sum_to_total;
    epoch_ratios_bounded;
    case "epochs: windows partition the run" epoch_windows_partition;
  ]
