(* Tests for the O(mn) offline dynamic program (Contribution 1):
   reproduction of the paper's worked examples, optimality against the
   independent exact solvers, and feasibility of reconstruction. *)

open Dcache_core
open Helpers
module B = Dcache_baselines

let unit = Cost_model.unit

module I = Dcache_experiments.Instances

(* ------------------------------------------------ paper worked examples *)

let fig6_c_vector () =
  let r = Offline_dp.solve I.fig6_model (fig6 ()) in
  let c = Offline_dp.c r in
  (* C(0) .. C(7) as stated in the paper's text, plus the final C(8) *)
  let expected = Array.append I.fig6_expected_c [| 10.3 |] in
  Array.iteri (fun i e -> check_float (Printf.sprintf "C(%d)" i) e c.(i)) expected

let fig6_d_vector () =
  let r = Offline_dp.solve I.fig6_model (fig6 ()) in
  let d = Offline_dp.d r in
  (* the first request on each server cannot be served by cache *)
  List.iter (fun i -> Alcotest.(check bool) (Printf.sprintf "D(%d) = inf" i) true (d.(i) = infinity)) [ 1; 2; 3 ];
  check_float "D(4)" I.fig6_expected_d4 d.(4);
  check_float "D(5)" 6.5 d.(5);
  check_float "D(6)" 7.1 d.(6);
  check_float "D(7)" I.fig6_expected_d7 d.(7);
  check_float "D(8)" 10.3 d.(8)

let fig6_pivots () =
  let r = Offline_dp.solve unit (fig6 ()) in
  (* D(5) is reached through pivot kappa = 4 (the s^1 interval [0, 1.4]
     spans t_{p(5)} = t_1 = 0.5); D(7) through kappa = 4 as well *)
  Alcotest.(check (option int)) "pivot of D(5)" (Some 4) (Offline_dp.pivot_of r 5);
  Alcotest.(check (option int)) "pivot of D(7)" (Some 4) (Offline_dp.pivot_of r 7);
  (* D(4) and D(6) are anchored at C(p(i)) *)
  Alcotest.(check (option int)) "D(4) anchored" None (Offline_dp.pivot_of r 4);
  Alcotest.(check (option int)) "D(6) anchored" None (Offline_dp.pivot_of r 6)

let fig6_bounds () =
  let r = Offline_dp.solve unit (fig6 ()) in
  let big_b = Offline_dp.running_bounds r in
  check_float "B_6 = 5.6 (used in the paper's D(7) computation)" 5.6 big_b.(6);
  check_float "B_2 = 2" 2.0 big_b.(2)

let fig2_costs () =
  let seq = fig2 () in
  let r = Offline_dp.solve I.fig2_model seq in
  let sched = Offline_dp.schedule r in
  check_float "total 7.2" 7.2 (Offline_dp.cost r);
  check_float "caching 3.2" I.fig2_expected_caching (Schedule.caching_cost unit sched);
  check_float "transfers 4.0" 4.0 (Schedule.transfer_cost unit sched);
  Alcotest.(check int) "4 transfers" 4 (Schedule.num_transfers sched);
  Alcotest.(check bool) "standard form" true (Schedule.is_standard_form seq sched)

(* --------------------------------------------------------- degenerate *)

let empty_sequence () =
  let seq = Sequence.of_list ~m:3 [] in
  let r = Offline_dp.solve unit seq in
  check_float "no requests, no cost" 0.0 (Offline_dp.cost r);
  Alcotest.(check int) "empty schedule" 0 (List.length (Schedule.caches (Offline_dp.schedule r)))

let single_request_home () =
  (* one request on the initial server: just cache until it *)
  let seq = Sequence.of_list ~m:2 [ (0, 3.0) ] in
  check_float "mu * t" 3.0 (Offline_dp.cost (Offline_dp.solve unit seq))

let single_request_remote () =
  let seq = Sequence.of_list ~m:2 [ (1, 3.0) ] in
  check_float "mu * t + lambda" 4.0 (Offline_dp.cost (Offline_dp.solve unit seq))

let one_server_only () =
  let seq = Sequence.of_list ~m:1 [ (0, 1.0); (0, 2.5); (0, 4.0) ] in
  (* single server: no transfers possible, pure caching *)
  let r = Offline_dp.solve unit seq in
  check_float "pure caching" 4.0 (Offline_dp.cost r);
  Alcotest.(check int) "no transfers" 0 (Schedule.num_transfers (Offline_dp.schedule r))

let transfer_vs_cache_breakeven () =
  (* two requests on server 1; the second at distance exactly
     lambda/mu: caching and re-transferring cost the same *)
  let model = Cost_model.make ~mu:1.0 ~lambda:2.0 () in
  let seq = Sequence.of_list ~m:2 [ (1, 1.0); (1, 3.0) ] in
  (* serve r1 by transfer (cache s0 [0,1], lambda) then either keep the
     copy on s1 for 2.0 (cost 2) or keep s0's and re-transfer (2+2 -> no,
     coverage: someone must cache [1,3] anyway: min is 2 either way) *)
  check_float "breakeven" (1.0 +. 2.0 +. 2.0) (Offline_dp.cost (Offline_dp.solve model seq))

let cheap_transfers_prefer_single_copy () =
  (* with very cheap transfers the optimum keeps one copy and beams
     everything else — and parks the coverage copy on s1 so that r3 is
     served for free: caching 2.0 plus only two transfers *)
  let model = Cost_model.make ~mu:1.0 ~lambda:0.001 () in
  let seq = Sequence.of_list ~m:3 [ (1, 1.0); (2, 1.5); (1, 2.0) ] in
  let expected = 2.0 +. (2.0 *. 0.001) in
  check_float "single copy + 2 transfers" expected (Offline_dp.cost (Offline_dp.solve model seq))

let expensive_transfers_prefer_migration () =
  (* transfers cost a fortune: the optimum pays exactly one to reach
     server 1 and caches everywhere it must *)
  let model = Cost_model.make ~mu:1.0 ~lambda:100.0 () in
  let seq = Sequence.of_list ~m:2 [ (1, 1.0); (1, 2.0); (1, 3.0) ] in
  check_float "one transfer + caching" (3.0 +. 100.0) (Offline_dp.cost (Offline_dp.solve model seq))

(* ------------------------------------------------------------ optimality *)

let optimality_vs_subset =
  qcheck ~count:500 "offline: fast DP equals the subset-state exact optimum"
    (problem_arbitrary ())
    (fun { model; seq } ->
      approx (Offline_dp.cost (Offline_dp.solve model seq)) (B.Subset_dp.solve model seq))

let optimality_vs_subset_with_upload =
  qcheck ~count:300 "offline: fast DP equals subset DP with uploads enabled"
    (problem_arbitrary ~with_upload:true ())
    (fun { model; seq } ->
      approx (Offline_dp.cost (Offline_dp.solve model seq)) (B.Subset_dp.solve model seq))

let optimality_vs_brute =
  qcheck ~count:200 "offline: fast DP equals brute force on tiny instances"
    (problem_arbitrary ~max_m:4 ~max_n:9 ())
    (fun { model; seq } ->
      approx (Offline_dp.cost (Offline_dp.solve model seq)) (B.Brute_force.solve model seq))

let naive_vectors_match =
  qcheck ~count:300 "offline: full-scan DP reproduces both C and D vectors"
    (problem_arbitrary ())
    (fun { model; seq } ->
      let r = Offline_dp.solve model seq in
      let c', d' = B.Naive_dp.solve_vectors model seq in
      let c = Offline_dp.c r and d = Offline_dp.d r in
      let ok = ref true in
      for i = 0 to Sequence.n seq do
        if not (approx c.(i) c'.(i) && approx d.(i) d'.(i)) then ok := false
      done;
      !ok)

(* -------------------------------------------------------- reconstruction *)

let reconstruction_feasible =
  qcheck ~count:400 "offline: reconstructed schedule is feasible and costs C(n)"
    (problem_arbitrary ())
    (fun { model; seq } ->
      let r = Offline_dp.solve model seq in
      let sched = Offline_dp.schedule r in
      (match Schedule.validate seq sched with Ok () -> true | Error _ -> false)
      && approx (Schedule.cost model sched) (Offline_dp.cost r))

let reconstruction_standard_form =
  qcheck ~count:300 "offline: reconstructed schedule is in standard form (Observation 1)"
    (problem_arbitrary ())
    (fun { model; seq } ->
      Schedule.is_standard_form seq (Offline_dp.schedule (Offline_dp.solve model seq)))

(* b_3 = lambda = mu sigma_3: serving r_3 by a transfer or by caching
   on s1 since r_2 costs the same.  The walk takes the transfer on a
   tie, as it always has, so printed schedules do not move. *)
let marginal_tie_is_a_transfer () =
  let seq = Sequence.of_list ~m:2 [ (0, 1.0); (1, 2.0); (1, 3.0); (0, 4.0) ] in
  let sched = Offline_dp.schedule (Offline_dp.solve unit seq) in
  Alcotest.(check string) "schedule"
    "caches:\n  H(s0, 0, 1)\n  H(s0, 1, 4)\ntransfers:\n  Tr(s0 -> s1, 2)\n  Tr(s0 -> s1, 3)"
    (Format.asprintf "%a" Schedule.pp sched)

let compare_caches (a : Schedule.cache) (b : Schedule.cache) =
  match Int.compare a.server b.server with
  | 0 -> (
      match Float.compare a.from_time b.from_time with
      | 0 -> Float.compare a.to_time b.to_time
      | c -> c)
  | c -> c

let compare_transfers (a : Schedule.transfer) (b : Schedule.transfer) =
  match Float.compare a.time b.time with 0 -> Int.compare a.dst b.dst | c -> c

let rec sorted cmp = function a :: (b :: _ as rest) -> cmp a b <= 0 && sorted cmp rest | _ -> true

let reconstruction_sorted_with_uploads =
  qcheck ~count:300 "offline: the schedule comes back sorted and valid, uploads included"
    (problem_arbitrary ~with_upload:true ())
    (fun { model; seq } ->
      let sched = Offline_dp.schedule (Offline_dp.solve model seq) in
      sorted compare_caches (Schedule.caches sched)
      && sorted compare_transfers (Schedule.transfers sched)
      && Schedule.validate seq sched = Ok ())

let subset_schedule_agrees =
  qcheck ~count:200 "offline: subset DP's own schedule is feasible with the same cost"
    (problem_arbitrary ~max_m:5 ~max_n:12 ())
    (fun { model; seq } ->
      let cost, sched = B.Subset_dp.solve_schedule model seq in
      (match Schedule.validate seq sched with Ok () -> true | Error _ -> false)
      && approx (Schedule.cost model sched) cost
      && approx cost (Offline_dp.cost (Offline_dp.solve model seq)))

(* ------------------------------------------------------- copy capacity *)

let capped_one_copy_vs_migrate_only =
  qcheck ~count:200 "capacity: one resident copy sits between OPT and the migrate-only path"
    (nonempty_problem_arbitrary ~max_m:5 ~max_n:14 ())
    (fun { model; seq } ->
      (* beam-and-discard costs one transfer; a bouncing lone copy two,
         so the capped optimum is sandwiched *)
      let capped = B.Subset_dp.solve ~max_copies:1 model seq in
      Dcache_prelude.Float_cmp.approx_le (B.Subset_dp.solve model seq) capped
      && Dcache_prelude.Float_cmp.approx_le capped
           (Dcache_spacetime.Graph.single_copy_optimum model seq))

let capped_monotone_in_k =
  qcheck ~count:150 "capacity: more allowed copies never cost more"
    (nonempty_problem_arbitrary ~max_m:5 ~max_n:12 ())
    (fun { model; seq } ->
      let cost k = B.Subset_dp.solve ~max_copies:k model seq in
      let unbounded = B.Subset_dp.solve model seq in
      Dcache_prelude.Float_cmp.approx_le (cost 2) (cost 1)
      && Dcache_prelude.Float_cmp.approx_le (cost 3) (cost 2)
      && Dcache_prelude.Float_cmp.approx_le unbounded (cost 3))

let capped_at_m_is_unbounded =
  qcheck ~count:150 "capacity: a cap of m changes nothing"
    (nonempty_problem_arbitrary ~max_m:5 ~max_n:12 ())
    (fun { model; seq } ->
      approx ~eps:1e-9
        (B.Subset_dp.solve ~max_copies:(Sequence.m seq) model seq)
        (B.Subset_dp.solve model seq))

let capped_rejects_zero () =
  let seq = Sequence.of_list ~m:2 [ (1, 1.0) ] in
  Alcotest.(check bool) "zero cap" true
    (try ignore (B.Subset_dp.solve ~max_copies:0 unit seq); false
     with Invalid_argument _ -> true)

(* ----------------------------------------------------- structural facts *)

let c_monotone =
  qcheck "offline: C is non-decreasing in i" (problem_arbitrary ()) (fun { model; seq } ->
      let c = Offline_dp.c (Offline_dp.solve model seq) in
      let ok = ref true in
      for i = 1 to Sequence.n seq do
        if c.(i) < c.(i - 1) -. 1e-9 then ok := false
      done;
      !ok)

let c_below_d =
  qcheck "offline: C(i) <= D(i) (Definition 7)" (problem_arbitrary ()) (fun { model; seq } ->
      let r = Offline_dp.solve model seq in
      let c = Offline_dp.c r and d = Offline_dp.d r in
      let ok = ref true in
      for i = 1 to Sequence.n seq do
        if not (Dcache_prelude.Float_cmp.approx_le c.(i) d.(i)) then ok := false
      done;
      !ok)

let b_below_c =
  qcheck "offline: B_i <= C(i) (the running bound, Definition 5)"
    (problem_arbitrary ~with_upload:false ())
    (fun { model; seq } ->
      let r = Offline_dp.solve model seq in
      let c = Offline_dp.c r and big_b = Offline_dp.running_bounds r in
      let ok = ref true in
      for i = 1 to Sequence.n seq do
        if not (Dcache_prelude.Float_cmp.approx_le big_b.(i) c.(i)) then ok := false
      done;
      !ok)

let prefix_consistency =
  qcheck ~count:150 "offline: C(k) of the full run equals the optimum of the k-prefix"
    (nonempty_problem_arbitrary ())
    (fun { model; seq } ->
      let c = Offline_dp.c (Offline_dp.solve model seq) in
      let k = max 1 (Sequence.n seq / 2) in
      approx c.(k) (Offline_dp.cost (Offline_dp.solve model (Sequence.sub seq k))))

let scale_invariance =
  qcheck ~count:150 "offline: scaling mu and lambda together scales the optimum"
    (problem_arbitrary ~with_upload:false ())
    (fun { model; seq } ->
      let scaled =
        Cost_model.make ~mu:(3.0 *. model.Cost_model.mu) ~lambda:(3.0 *. model.Cost_model.lambda) ()
      in
      approx ~eps:1e-6
        (3.0 *. Offline_dp.cost (Offline_dp.solve model seq))
        (Offline_dp.cost (Offline_dp.solve scaled seq)))

let upload_never_hurts =
  qcheck ~count:150 "offline: enabling uploads never increases the optimum"
    (problem_arbitrary ~with_upload:false ())
    (fun { model; seq } ->
      let with_upload =
        Cost_model.make ~upload:(model.Cost_model.lambda /. 2.0) ~mu:model.Cost_model.mu
          ~lambda:model.Cost_model.lambda ()
      in
      Dcache_prelude.Float_cmp.approx_le
        (Offline_dp.cost (Offline_dp.solve with_upload seq))
        (Offline_dp.cost (Offline_dp.solve model seq)))

(* Scaling mu, lambda and the upload by one power of two rounds
   nothing in the normal range, so both solvers make the same choices
   and every cost scales by exactly the factor.  2^-996 and 2^996 take
   the rates near either end of the normal range. *)
let scale_invariance_exact =
  qcheck ~count:200 "offline: scaling every rate by 2^-996 or 2^996 scales every cost exactly"
    (problem_arbitrary ~with_upload:true ())
    (fun { model; seq } ->
      let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
      List.for_all
        (fun factor ->
          let scaled =
            Cost_model.make ~upload:(factor *. model.Cost_model.upload)
              ~mu:(factor *. model.Cost_model.mu) ~lambda:(factor *. model.Cost_model.lambda) ()
          in
          let base = Offline_dp.solve model seq and other = Offline_dp.solve scaled seq in
          let s = Offline_dp.schedule base and s' = Offline_dp.schedule other in
          let sc = Online_sc.run ~record_events:true model seq
          and sc' = Online_sc.run ~record_events:true scaled seq in
          if Schedule.caches s <> Schedule.caches s' || Schedule.transfers s <> Schedule.transfers s'
          then QCheck.Test.fail_reportf "the optimal schedule changed at factor %h" factor;
          if sc.Online_sc.serves <> sc'.Online_sc.serves || sc.segments <> sc'.segments then
            QCheck.Test.fail_reportf "SC served differently at factor %h" factor;
          same (factor *. Offline_dp.cost base) (Offline_dp.cost other)
          && same (factor *. Schedule.cost model s) (Schedule.cost scaled s')
          && Schedule.num_transfers s = Schedule.num_transfers s'
          && sc.num_transfers = sc'.num_transfers
          && sc.num_epochs = sc'.num_epochs
          && same (factor *. sc.caching_cost) sc'.caching_cost
          && same (factor *. sc.transfer_cost) sc'.transfer_cost
          && same (factor *. sc.total_cost) sc'.total_cost)
        [ Float.ldexp 1.0 (-996); Float.ldexp 1.0 996 ])

(* ------------------------------------------------- allocation budgets *)

(* Words per request of the calls [dcache solve] makes, on the bench
   ledger's workloads at n = 20 000, seed 1.  Each budget fails on one
   more 2-word allocation per request, and the solve, miss and path
   budgets on one more word per row, such as C back in the rows or a
   copy of the times.  What is left:
   - [Offline_dp.solve] (2.00-2.01): the solver's two float columns
     [D; B] (2); it reads the sequence's time column in place, as the
     rows' time plane, so no time is boxed or copied;
   - a cold [Offline_dp.schedule] (5.23-5.64): the walk's two
     per-request slot arrays (2) and the schedule's columns, three
     words per piece at 1.1-1.2 pieces per request;
   - pricing (0.00): [Bounds.lower_bound] reads the columns in place;
   - a [Solve_cache.solve] miss (3.51): the solve and the
     16 + 12n-byte fingerprint it digests (1.5);
   - the whole path in ledger order (11.18-11.59): [Trace_io.read] on
     a file (2.43, budgeted in test_workload), a miss, a cold schedule
     and pricing. *)
let allocation_budgets () =
  let budget name what limit words =
    if words > limit then
      Alcotest.failf "%s on %s allocates %.2f words/request (budget %g)" what name words limit
  in
  let pricing seq schedule =
    ignore (Sys.opaque_identity (Schedule.caching_cost unit schedule));
    ignore (Sys.opaque_identity (Schedule.transfer_cost unit schedule));
    ignore (Sys.opaque_identity (Schedule.num_transfers schedule));
    Bounds.lower_bound unit seq
  in
  List.iter
    (fun (name, seq) ->
      budget name "Offline_dp.solve" 2.75
        (words_per_request ~n:budget_n (fun () -> Offline_dp.solve unit seq));
      let r = Offline_dp.solve unit seq in
      budget name "a cold Offline_dp.schedule" 7.0
        (words_per_request ~n:budget_n (fun () -> Offline_dp.schedule r));
      let schedule = Offline_dp.schedule r in
      budget name "pricing" 1.0 (words_per_request ~n:budget_n (fun () -> pricing seq schedule));
      Solve_cache.clear ();
      budget name "a Solve_cache.solve miss" 4.25
        (words_per_request ~n:budget_n (fun () -> Solve_cache.solve unit seq));
      Solve_cache.clear ();
      with_temp_file (Dcache_workload.Trace_io.to_string seq) (fun filename ->
          budget name "the solve path" 12.25
            (words_per_request ~n:budget_n (fun () ->
                 match Dcache_workload.Trace_io.read ~filename ~m:(Sequence.m seq) with
                 | Error msg -> Alcotest.fail msg
                 | Ok seq -> pricing seq (Offline_dp.schedule (Solve_cache.solve unit seq)))));
      Solve_cache.clear ())
    (budget_workloads ())

(* ------------------------------------------- C and D, bit for bit *)

(* Small problems with uploads below, at and 1 ulp below lambda, time
   gaps that are often a single ulp, and often one server; now and
   then a stream past the first row block *)
let vectors_gen =
  let open QCheck.Gen in
  let small =
    let* m = frequency [ (1, return 1); (2, int_range 2 6) ] and* n = int_range 0 80 in
    let* servers = array_size (return n) (int_range 0 (m - 1)) in
    let* gaps = array_size (return n) ulp_gap_gen in
    let* mu = frequency [ (3, float_range 0.1 4.0); (1, return 1.0) ] in
    let* lambda = frequency [ (3, float_range 0.1 4.0); (1, return 0.5) ] in
    let* upload =
      oneof [ return infinity; return lambda; return (Float.pred lambda); float_range 0.1 4.0 ]
    in
    match Sequence.of_columns ~m ~servers ~times:(times_of_gaps gaps) with
    | Ok seq -> return { model = Cost_model.make ~upload ~mu ~lambda (); seq }
    | Error msg -> failwith msg
  in
  frequency [ (40, small); (1, long_problem_gen) ]

let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y) a b

(* The rows keep no C: [Offline_dp.c] and [Streaming_dp.costs]
   recompute it in one pass, and must give the full-scan DP's C and D
   exactly, for the batch solve and for a pushed stream *)
let vectors_match_naive_bit_for_bit =
  qcheck ~count:300 "offline: C and D are Naive_dp's bit for bit"
    (QCheck.make
       ~print:(fun { model; seq } ->
         if Sequence.n seq > 100 then
           Format.asprintf "m = %d, n = %d, %a" (Sequence.m seq) (Sequence.n seq) pp_model model
         else problem_print { model; seq })
       vectors_gen)
    (fun { model; seq } ->
      let n = Sequence.n seq in
      let c, d = B.Naive_dp.solve_vectors model seq in
      let r = Offline_dp.solve model seq in
      let stream = Streaming_dp.create model ~m:(Sequence.m seq) in
      for i = 1 to n do
        Streaming_dp.push stream ~server:(Sequence.server seq i) ~time:(Sequence.time seq i)
      done;
      let pushed_d = Array.init (n + 1) (Streaming_dp.semi_cost_at stream) in
      same_bits (Offline_dp.c r) c
      && same_bits (Offline_dp.d r) d
      && same_bits (Streaming_dp.costs stream) c
      && same_bits pushed_d d
      && same_bits [| Streaming_dp.cost stream; Offline_dp.cost r |] [| c.(n); c.(n) |])

let suite =
  [
    case "fig6: C vector matches the paper" fig6_c_vector;
    case "fig6: D vector matches the paper" fig6_d_vector;
    case "fig6: pivot indices (Lemma 3 vs Lemma 4)" fig6_pivots;
    case "fig6: running bounds used in D(7)" fig6_bounds;
    case "fig2: caching 3.2 + transfers 4.0" fig2_costs;
    case "degenerate: empty sequence" empty_sequence;
    case "degenerate: one request at home" single_request_home;
    case "degenerate: one remote request" single_request_remote;
    case "degenerate: single server" one_server_only;
    case "break-even between cache and transfer" transfer_vs_cache_breakeven;
    case "cheap transfers: one copy, beam the rest" cheap_transfers_prefer_single_copy;
    case "expensive transfers: migrate once" expensive_transfers_prefer_migration;
    optimality_vs_subset;
    optimality_vs_subset_with_upload;
    optimality_vs_brute;
    naive_vectors_match;
    reconstruction_feasible;
    reconstruction_standard_form;
    case "offline: a marginal tie is served by a transfer" marginal_tie_is_a_transfer;
    reconstruction_sorted_with_uploads;
    subset_schedule_agrees;
    capped_one_copy_vs_migrate_only;
    capped_monotone_in_k;
    capped_at_m_is_unbounded;
    case "capacity: rejects a zero cap" capped_rejects_zero;
    c_monotone;
    c_below_d;
    b_below_c;
    prefix_consistency;
    scale_invariance;
    upload_never_hurts;
    case "offline: allocation budgets on the ledger workloads" allocation_budgets;
    scale_invariance_exact;
    vectors_match_naive_bit_for_bit;
  ]
