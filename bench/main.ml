(* Benchmark harness: one bechamel timing group per experiment surface
   (offline solvers, reconstruction, online algorithm, policies,
   simulator), followed by the full regeneration of every experiment
   table (E1-E15 of DESIGN.md).

   Modes:

     dune exec bench/main.exe                     # full: timings + tables
     dune exec bench/main.exe -- quick            # reduced: drops the large
                                                  #   timing cases (offline
                                                  #   n=4000, online n=10000)
                                                  #   and runs quick tables
     dune exec bench/main.exe -- dp               # kernel-only subset: the
                                                  #   offline DP group + the
                                                  #   gated streaming push,
                                                  #   plus the direct word and
                                                  #   memo probes (make
                                                  #   bench-dp)
     dune exec bench/main.exe -- json FILE        # timings only, written to
                                                  #   FILE as dcache-bench/1
                                                  #   JSON (BENCH_results.json)
     dune exec bench/main.exe -- quick json FILE  # both; this is how
                                                  #   BENCH_baseline.json for
                                                  #   bench/perf_gate.exe is
                                                  #   produced (make
                                                  #   bench-baseline)

   `--trace FILE` (any mode; also DCACHE_TRACE=FILE) records the run
   with the Obs observability layer and writes a Chrome trace_event
   profile to FILE at exit — `make trace` drives this.  When a
   recording sink is active, JSON reports also carry the end-of-run
   counter totals in an optional "counters" field.

   JSON runs also record the minor words of one [Streaming_dp.push]
   (the tier-1 test `streaming: push allocation budget` holds it to
   3). *)

open Bechamel
open Dcache_core
open Dcache_bench_common

let model = Bench_cases.model
let random_instance = Bench_cases.random_instance

(* -------------------------------------------------------- timing groups *)

let offline_tests ~quick =
  let seq_1k_m8 = random_instance 1 ~m:8 ~n:1000 in
  let seq_1k_m64 = random_instance 3 ~m:64 ~n:1000 in
  let large =
    if quick then []
    else
      let seq_4k_m8 = random_instance 2 ~m:8 ~n:4000 in
      [
        Test.make ~name:"fast-dp n=4000 m=8"
          (Staged.stage (fun () -> ignore (Offline_dp.cost (Offline_dp.solve model seq_4k_m8))));
      ]
  in
  Test.make_grouped ~name:"offline"
    ([
       Test.make ~name:"fast-dp n=1000 m=8"
         (Staged.stage (fun () -> ignore (Offline_dp.cost (Offline_dp.solve model seq_1k_m8))));
       Test.make ~name:"fast-dp n=1000 m=64"
         (Staged.stage (fun () -> ignore (Offline_dp.cost (Offline_dp.solve model seq_1k_m64))));
       Test.make ~name:"full-scan n=1000 m=8"
         (Staged.stage (fun () -> ignore (Dcache_baselines.Naive_dp.solve model seq_1k_m8)));
       Test.make ~name:"subset-dp n=1000 m=8"
         (Staged.stage (fun () -> ignore (Dcache_baselines.Subset_dp.solve model seq_1k_m8)));
       Test.make ~name:"reconstruct n=1000 m=8"
         (let r = Offline_dp.solve model seq_1k_m8 in
          Staged.stage (fun () -> ignore (Offline_dp.schedule r)));
       Test.make ~name:"solve-memo warm n=1000 m=64"
         ((* prime once so the timed iterations are digest-keyed hits *)
          Solve_cache.clear ();
          ignore (Solve_cache.solve model seq_1k_m64);
          Staged.stage (fun () -> ignore (Offline_dp.cost (Solve_cache.solve model seq_1k_m64))));
     ]
    @ large)

let online_tests ~quick =
  let seq = random_instance 4 ~m:8 ~n:1000 in
  let large =
    if quick then []
    else
      let seq_dense = random_instance 5 ~m:8 ~n:10000 in
      [
        Test.make ~name:"sc n=10000 m=8"
          (Staged.stage (fun () -> ignore (Online_sc.run model seq_dense).Online_sc.total_cost));
      ]
  in
  Test.make_grouped ~name:"online"
    ([
       Test.make ~name:"sc n=1000 m=8"
         (Staged.stage (fun () -> ignore (Online_sc.run model seq).Online_sc.total_cost));
       Test.make ~name:"sc+epochs n=1000"
         (Staged.stage (fun () ->
              ignore (Online_sc.run ~epoch_size:50 model seq).Online_sc.total_cost));
       Test.make ~name:"double-transfer n=1000"
         (let run = Online_sc.run ~record_events:true model seq in
          Staged.stage (fun () -> ignore (Double_transfer.of_run model run)));
     ]
    @ large)

let policy_tests =
  let seq = random_instance 6 ~m:8 ~n:1000 in
  Test.make_grouped ~name:"policies"
    [
      Test.make ~name:"static-home"
        (Staged.stage (fun () -> ignore (Dcache_baselines.Online_policies.static_home model seq)));
      Test.make ~name:"follow"
        (Staged.stage (fun () -> ignore (Dcache_baselines.Online_policies.follow model seq)));
      Test.make ~name:"cache-everywhere"
        (Staged.stage (fun () ->
             ignore (Dcache_baselines.Online_policies.cache_everywhere model seq)));
      Test.make ~name:"classic-lru k=3"
        (Staged.stage (fun () ->
             ignore (Dcache_baselines.Online_policies.classic_lru ~capacity:3 model seq)));
      Test.make ~name:"single-copy spacetime"
        (Staged.stage (fun () ->
             ignore (Dcache_spacetime.Graph.single_copy_optimum model seq)));
    ]

let simulator_tests =
  let seq = random_instance 7 ~m:8 ~n:1000 in
  let sched = Offline_dp.schedule (Offline_dp.solve model seq) in
  Test.make_grouped ~name:"simulator"
    [
      Test.make ~name:"engine sc-policy n=1000"
        (Staged.stage (fun () ->
             ignore (Dcache_sim.Engine.run (module Dcache_sim.Sc_policy) model seq)));
      Test.make ~name:"engine replay n=1000"
        (Staged.stage (fun () ->
             ignore (Dcache_sim.Engine.run (Dcache_sim.Replay.make sched) model seq)));
    ]

let extension_tests =
  let seq = random_instance 8 ~m:6 ~n:1000 in
  let seq_small = random_instance 9 ~m:5 ~n:100 in
  let hetero_costs =
    Dcache_baselines.Hetero_dp.make_costs_exn
      ~mu:(Array.init 5 (fun s -> 1.0 +. (0.3 *. float_of_int s)))
      ~lambda:
        (Array.init 5 (fun i ->
             Array.init 5 (fun j -> if i = j then 0.0 else 2.0 +. (0.1 *. float_of_int (i + j)))))
  in
  Test.make_grouped ~name:"extensions"
    [
      Bench_cases.streaming_push_test ();
      Test.make ~name:"predictive oracle n=1000"
        (Staged.stage (fun () ->
             ignore (Online_predictive.run (Online_predictive.oracle seq) model seq)));
      Test.make ~name:"hetero exact n=100 m=5"
        (Staged.stage (fun () -> ignore (Dcache_baselines.Hetero_dp.solve hetero_costs seq_small)));
      Test.make ~name:"epoch analysis n=1000"
        (Staged.stage (fun () -> ignore (Epoch_analysis.analyse ~epoch_size:25 model seq)));
    ]

let workload_tests =
  Test.make_grouped ~name:"workload"
    [
      Test.make ~name:"generate mobility n=1000"
        (Staged.stage (fun () ->
             ignore
               (Dcache_workload.Generator.generate_seeded ~seed:1
                  {
                    Dcache_workload.Generator.m = 8;
                    n = 1000;
                    arrival = Dcache_workload.Arrival.Poisson { rate = 1.0 };
                    placement = Dcache_workload.Placement.Mobility { stay = 0.8; ring = true };
                  })));
    ]

let obs_tests =
  Test.make_grouped ~name:Bench_cases.labeled_group [ Bench_cases.labeled_test () ]

let groups ~quick =
  [
    ("offline", offline_tests ~quick);
    ("online", online_tests ~quick);
    ("policies", policy_tests);
    ("simulator", simulator_tests);
    ("extensions", extension_tests);
    ("workload", workload_tests);
    (Bench_cases.labeled_group, obs_tests);
  ]

(* ------------------------------------------------------------- reporting *)

let print_group (_, test) =
  List.iter
    (fun row ->
      if Float.is_finite row.Bench_cases.ns_per_run then
        Printf.printf "  %-40s %14.1f ns/run  %12.1f minor words/run\n" row.Bench_cases.name
          row.Bench_cases.ns_per_run row.Bench_cases.minor_words_per_run
      else Printf.printf "  %-40s (no estimate)\n" row.Bench_cases.name)
    (Bench_cases.measure test)

let push_words () =
  let words = Bench_cases.words_per_push () in
  Printf.printf "streaming push: %.3f minor words/request\n" words;
  words

let write_json ~quick path =
  let entries =
    List.concat_map
      (fun (group, test) ->
        List.map
          (fun row ->
            {
              Bench_json.group;
              name = Bench_cases.strip_group ~group row.Bench_cases.name;
              ns_per_run = row.Bench_cases.ns_per_run;
              mops_per_sec = 1e3 /. row.Bench_cases.ns_per_run;
              minor_words_per_run = row.Bench_cases.minor_words_per_run;
            })
          (Bench_cases.measure test))
      (groups ~quick)
  in
  let words_per_push = push_words () in
  let report =
    {
      Bench_json.schema = Bench_json.schema_id;
      git_rev = Bench_cases.git_rev ();
      domains = Dcache_prelude.Pool.default_domains ();
      quick;
      words_per_push;
      entries;
      (* all-zero without a recording sink: drop the noise and keep
         the report byte-identical to pre-obs runs *)
      counters = List.filter (fun (_, v) -> v <> 0) (Dcache_obs.Obs.counter_totals ());
      quantiles =
        List.filter_map
          (fun (name, h) ->
            let module H = Dcache_obs.Histo_log in
            if H.count h = 0 then None
            else
              let q = H.quantiles h [| 0.5; 0.9; 0.99; 0.999 |] in
              Some
                ( name,
                  {
                    Bench_json.q_count = H.count h;
                    q_sum_ns = float_of_int (H.sum h);
                    q_p50 = q.(0);
                    q_p90 = q.(1);
                    q_p99 = q.(2);
                    q_p999 = q.(3);
                  } ))
          (Dcache_obs.Obs.span_durations ());
    }
  in
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (Bench_json.report_to_string report));
  Printf.printf "wrote %d benchmark entries to %s\n" (List.length entries) path

let () =
  Dcache_obs.Obs.install_from_env ();
  let args = List.tl (Array.to_list Sys.argv) in
  let quick = List.exists (String.equal "quick") args in
  let rec trace_path = function
    | "--trace" :: path :: _ -> Some path
    | [ "--trace" ] ->
        Printf.eprintf "usage: main [quick] [json FILE] [--trace FILE]\n";
        exit 2
    | _ :: rest -> trace_path rest
    | [] -> None
  in
  (match trace_path args with
  | Some path -> Dcache_obs.Obs.enable_file_trace path
  | None -> ());
  (* GC-aware tracing: when a wall-clock recording sink is active
     (--trace / DCACHE_TRACE), bridge Runtime_events GC phases into
     the trace; install *after* enable_file_trace so the LIFO at_exit
     chain polls the bridge before the trace file is written.  Never
     active in deterministic modes — those use tick clocks and no env
     trace. *)
  ignore (Dcache_obs.Runtime_bridge.install ());
  let rec json_path = function
    | "json" :: path :: _ -> Some path
    | [ "json" ] ->
        Printf.eprintf "usage: main [quick] [json FILE] [--trace FILE]\n";
        exit 2
    | _ :: rest -> json_path rest
    | [] -> None
  in
  if List.exists (String.equal "dp") args then begin
    (* kernel-only subset for tight edit-measure loops on the DP hot
       paths: the offline group, the gated push case, the direct word
       probes and the solve-memo speed-up the perf gate enforces *)
    print_endline "== DP kernel benchmarks ==";
    print_group ("offline", offline_tests ~quick:true);
    print_group ("extensions", Test.make_grouped ~name:"extensions" [ Bench_cases.streaming_push_test () ]);
    ignore (push_words ());
    Printf.printf "reconstruct: %.3f minor words/run\n" (Bench_cases.reconstruct_minor_words ());
    let mc = Bench_cases.solve_memo_cost () in
    Printf.printf "solve memo: %.1f ns cold, %.1f ns warm (%.1fx, floor %.0fx)\n"
      mc.Bench_cases.cold_ns mc.Bench_cases.warm_ns mc.Bench_cases.speedup
      Bench_cases.min_solve_memo_speedup
  end
  else
  match json_path args with
  | Some path -> write_json ~quick path
  | None ->
      print_endline "== bechamel timing benchmarks (monotonic clock, OLS per-run estimates) ==";
      List.iter print_group (groups ~quick);
      print_newline ();
      print_endline "== experiment tables (E1-E15; see DESIGN.md and EXPERIMENTS.md) ==";
      Dcache_experiments.Experiments.run_all ~quick ()
