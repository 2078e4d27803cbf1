(* Tests for the problem-statement layer: Cost_model, Request,
   Sequence, Bounds, and the Schedule validator. *)

open Dcache_core
open Helpers

(* ------------------------------------------------------------ cost model *)

let cost_model_validation () =
  List.iter
    (fun f -> Alcotest.(check bool) "rejects" true (try ignore (f ()); false with Invalid_argument _ -> true))
    [
      (fun () -> Cost_model.make ~mu:0.0 ~lambda:1.0 ());
      (fun () -> Cost_model.make ~mu:1.0 ~lambda:0.0 ());
      (fun () -> Cost_model.make ~mu:(-1.0) ~lambda:1.0 ());
      (fun () -> Cost_model.make ~upload:0.0 ~mu:1.0 ~lambda:1.0 ());
    ]

(* an infinite rate poisons every cost into inf/nan downstream, so it
   is rejected up front; an infinite upload is the documented "no
   upload" default *)
let cost_model_rejects_non_finite () =
  let rejects name f =
    Alcotest.(check bool) name true (try ignore (f ()); false with Invalid_argument _ -> true)
  in
  rejects "mu = inf" (fun () -> Cost_model.make ~mu:infinity ~lambda:1.0 ());
  rejects "lambda = inf" (fun () -> Cost_model.make ~mu:1.0 ~lambda:infinity ());
  rejects "mu = nan" (fun () -> Cost_model.make ~mu:nan ~lambda:1.0 ());
  rejects "lambda = nan" (fun () -> Cost_model.make ~mu:1.0 ~lambda:nan ());
  let m = Cost_model.make ~upload:infinity ~mu:1.0 ~lambda:2.0 () in
  Alcotest.(check bool) "upload = inf accepted" true (Float.equal m.Cost_model.upload infinity)

let cost_model_delta_t () =
  let model = Cost_model.make ~mu:2.0 ~lambda:5.0 () in
  check_float "delta_t" 2.5 (Cost_model.delta_t model);
  check_float "caching" 6.0 (Cost_model.caching model ~duration:3.0);
  check_float "unit model window" 1.0 (Cost_model.delta_t Cost_model.unit)

let cost_model_add () =
  let model = Cost_model.make ~mu:2.0 ~lambda:5.0 () in
  check_float "no transfers" 3.5 (Cost_model.add model ~caching:3.5 ~transfers:0);
  check_float "counted transfers" 18.5 (Cost_model.add model ~caching:3.5 ~transfers:3);
  (* counting keeps the transfer component exact where a running fold
     would drift: 10^7 transfers at an exactly-representable rate *)
  check_float "exact at scale" 1.25e6
    (Cost_model.add (Cost_model.make ~mu:1.0 ~lambda:0.125 ()) ~caching:0.0 ~transfers:10_000_000)

(* --------------------------------------------------------------- request *)

let request_ordering () =
  let a = Request.make ~server:1 ~time:1.0 in
  let b = Request.make ~server:0 ~time:2.0 in
  Alcotest.(check bool) "time dominates" true (Request.compare a b < 0);
  let c = Request.make ~server:2 ~time:1.0 in
  Alcotest.(check bool) "server breaks ties" true (Request.compare a c < 0);
  Alcotest.(check bool) "equal" true (Request.equal a { Request.server = 1; time = 1.0 })

let request_validation () =
  Alcotest.(check bool) "negative server" true
    (try ignore (Request.make ~server:(-1) ~time:1.0); false with Invalid_argument _ -> true);
  Alcotest.(check bool) "nan time" true
    (try ignore (Request.make ~server:0 ~time:nan); false with Invalid_argument _ -> true)

(* -------------------------------------------------------------- sequence *)

let sequence_accessors () =
  let seq = fig6 () in
  Alcotest.(check int) "m" 4 (Sequence.m seq);
  Alcotest.(check int) "n" 8 (Sequence.n seq);
  Alcotest.(check int) "r_0 server" 0 (Sequence.server seq 0);
  check_float "r_0 time" 0.0 (Sequence.time seq 0);
  Alcotest.(check int) "r_7 server" 2 (Sequence.server seq 7);
  check_float "horizon" 4.4 (Sequence.horizon seq);
  Alcotest.(check int) "requests array length" 8 (Array.length (Sequence.requests seq))

let sequence_prev_and_sigma () =
  let seq = fig6 () in
  (* p(4) = 0 (server 0's boundary request), sigma_4 = 1.4 *)
  Alcotest.(check int) "p(4)" 0 (Sequence.prev_same_server seq 4);
  check_float "sigma_4" 1.4 (Sequence.sigma seq 4);
  (* first request on s^2: dummy predecessor *)
  Alcotest.(check int) "p(1)" (-1) (Sequence.prev_same_server seq 1);
  Alcotest.(check bool) "sigma_1 infinite" true (Sequence.sigma seq 1 = infinity);
  (* p(6) = 5: consecutive requests on server 1 *)
  Alcotest.(check int) "p(6)" 5 (Sequence.prev_same_server seq 6);
  check_float "sigma_6" 0.6 (Sequence.sigma seq 6);
  Alcotest.(check int) "p(7) = 2" 2 (Sequence.prev_same_server seq 7)

let sequence_requests_on () =
  let seq = fig6 () in
  Alcotest.(check (list int)) "server 0 incl. r_0" [ 0; 4 ] (Sequence.requests_on seq 0);
  Alcotest.(check (list int)) "server 1" [ 1; 5; 6 ] (Sequence.requests_on seq 1);
  Alcotest.(check (list int)) "server 3" [ 3; 8 ] (Sequence.requests_on seq 3)

let sequence_rejects_bad_input () =
  let bad m reqs =
    match Sequence.create ~m (Array.of_list (List.map (fun (s, t) -> { Request.server = s; time = t }) reqs)) with
    | Ok _ -> false
    | Error _ -> true
  in
  Alcotest.(check bool) "m = 0" true (bad 0 []);
  Alcotest.(check bool) "server out of range" true (bad 2 [ (2, 1.0) ]);
  Alcotest.(check bool) "non-increasing times" true (bad 2 [ (0, 1.0); (1, 1.0) ]);
  Alcotest.(check bool) "decreasing times" true (bad 2 [ (0, 2.0); (1, 1.0) ]);
  Alcotest.(check bool) "time zero" true (bad 2 [ (0, 0.0) ]);
  Alcotest.(check bool) "negative time" true (bad 2 [ (0, -1.0) ])

let sequence_sub () =
  let seq = fig6 () in
  let sub = Sequence.sub seq 3 in
  Alcotest.(check int) "n" 3 (Sequence.n sub);
  check_float "horizon" 1.1 (Sequence.horizon sub);
  let empty = Sequence.sub seq 0 in
  Alcotest.(check int) "empty" 0 (Sequence.n empty);
  check_float "empty horizon" 0.0 (Sequence.horizon empty)

let sequence_prev_consistency =
  qcheck "sequence: p(i) is the latest earlier request on the same server"
    (nonempty_problem_arbitrary ())
    (fun { seq; _ } ->
      let n = Sequence.n seq in
      let ok = ref true in
      for i = 1 to n do
        let p = Sequence.prev_same_server seq i in
        (* reference: scan *)
        let expected = ref (if Sequence.server seq i = 0 then 0 else -1) in
        for j = 1 to i - 1 do
          if Sequence.server seq j = Sequence.server seq i then expected := j
        done;
        if p <> !expected then ok := false;
        if p >= 0 then begin
          if not (approx (Sequence.sigma seq i) (Sequence.time seq i -. Sequence.time seq p)) then
            ok := false
        end
        else if Sequence.sigma seq i <> infinity then ok := false
      done;
      !ok)

(* ---------------------------------------------------------------- bounds *)

let bounds_fig6 () =
  let model = Cost_model.unit in
  let seq = fig6 () in
  let b = Bounds.marginal model seq in
  let expected = [| 0.0; 1.0; 1.0; 1.0; 1.0; 1.0; 0.6; 1.0; 1.0 |] in
  Array.iteri (fun i e -> check_float (Printf.sprintf "b_%d" i) e b.(i)) expected;
  check_float "B_n" 7.6 (Bounds.lower_bound model seq);
  check_float "coverage bound" 4.4 (Bounds.coverage_lower_bound model seq);
  (* the running bounds are the prefix sums of the marginals, ending
     at the lower bound; B_6 = 5.6 is the value the paper's D(7)
     computation plugs in *)
  let big_b = Bounds.running model seq in
  check_float "B_0" 0.0 big_b.(0);
  check_float "B_6" 5.6 big_b.(6);
  check_float "B_n via running" (Bounds.lower_bound model seq) big_b.(Sequence.n seq);
  Array.iteri
    (fun i bi -> if i > 0 then check_float (Printf.sprintf "B_%d - B_%d" i (i - 1)) bi (big_b.(i) -. big_b.(i - 1)))
    b

let bounds_scale_with_lambda () =
  let seq = fig6 () in
  let model = Cost_model.make ~mu:1.0 ~lambda:0.5 () in
  let b = Bounds.marginal model seq in
  check_float "b_1 capped at lambda" 0.5 b.(1);
  check_float "b_6 = mu sigma" 0.5 b.(6) (* min(0.5, 0.6) *)

let bounds_below_optimum =
  qcheck "bounds: B_n and mu*t_n are lower bounds on the optimum"
    (problem_arbitrary ~with_upload:false ())
    (fun { model; seq } ->
      let opt = Offline_dp.cost (Offline_dp.solve model seq) in
      Dcache_prelude.Float_cmp.approx_le (Bounds.lower_bound model seq) opt
      && Dcache_prelude.Float_cmp.approx_le (Bounds.coverage_lower_bound model seq) opt)

(* -------------------------------------------------------------- schedule *)

let simple_seq () = Sequence.of_list ~m:3 [ (1, 1.0); (0, 2.0); (2, 3.0) ]

let valid_schedule () =
  (* cache on s0 the whole horizon, transfers serve s1 and s2 *)
  Schedule.make
    ~caches:[ { Schedule.server = 0; from_time = 0.0; to_time = 3.0 } ]
    ~transfers:
      [
        { Schedule.src = Schedule.From_server 0; dst = 1; time = 1.0 };
        { Schedule.src = Schedule.From_server 0; dst = 2; time = 3.0 };
      ]

let schedule_cost_accounting () =
  let model = Cost_model.make ~mu:2.0 ~lambda:3.0 () in
  let s = valid_schedule () in
  check_float "caching" 6.0 (Schedule.caching_cost model s);
  check_float "transfer" 6.0 (Schedule.transfer_cost model s);
  check_float "total" 12.0 (Schedule.cost model s);
  Alcotest.(check int) "num transfers" 2 (Schedule.num_transfers s)

let schedule_upload_pricing () =
  let model = Cost_model.make ~upload:7.0 ~mu:1.0 ~lambda:1.0 () in
  let s =
    Schedule.make ~caches:[]
      ~transfers:[ { Schedule.src = Schedule.From_external; dst = 1; time = 1.0 } ]
  in
  check_float "upload priced at beta" 7.0 (Schedule.cost model s)

let schedule_validates_good () =
  match Schedule.validate (simple_seq ()) (valid_schedule ()) with
  | Ok () -> ()
  | Error es -> Alcotest.failf "unexpected: %s" (String.concat "; " es)

let expect_invalid msg schedule =
  match Schedule.validate (simple_seq ()) schedule with
  | Ok () -> Alcotest.failf "%s: validator accepted an infeasible schedule" msg
  | Error _ -> ()

let schedule_detects_unserved_request () =
  expect_invalid "unserved"
    (Schedule.make
       ~caches:[ { Schedule.server = 0; from_time = 0.0; to_time = 3.0 } ]
       ~transfers:[ { Schedule.src = Schedule.From_server 0; dst = 1; time = 1.0 } ])

let schedule_validate_exn_raises_invalid_schedule () =
  let infeasible = Schedule.make ~caches:[] ~transfers:[] in
  match Schedule.validate_exn (simple_seq ()) infeasible with
  | () -> Alcotest.fail "validate_exn accepted an infeasible schedule"
  | exception Schedule.Invalid_schedule (_ :: _) -> ()
  | exception Schedule.Invalid_schedule [] ->
      Alcotest.fail "Invalid_schedule carried no violations"

let schedule_detects_coverage_gap () =
  (* everything is served and sourced (the s2 interval starts with an
     upload), but nobody caches during (2.0, 2.5) *)
  expect_invalid "coverage gap"
    (Schedule.make
       ~caches:
         [
           { Schedule.server = 0; from_time = 0.0; to_time = 2.0 };
           { Schedule.server = 2; from_time = 2.5; to_time = 3.0 };
         ]
       ~transfers:
         [
           { Schedule.src = Schedule.From_server 0; dst = 1; time = 1.0 };
           { Schedule.src = Schedule.From_external; dst = 2; time = 2.5 };
         ])

let schedule_detects_unsourced_cache () =
  expect_invalid "unsourced cache"
    (Schedule.make
       ~caches:
         [
           { Schedule.server = 0; from_time = 0.0; to_time = 3.0 };
           (* nothing delivers a copy to s2 at 2.5 *)
           { Schedule.server = 2; from_time = 2.5; to_time = 3.0 };
         ]
       ~transfers:[ { Schedule.src = Schedule.From_server 0; dst = 1; time = 1.0 } ])

let schedule_detects_ghost_transfer_source () =
  expect_invalid "transfer from empty server"
    (Schedule.make
       ~caches:[ { Schedule.server = 0; from_time = 0.0; to_time = 3.0 } ]
       ~transfers:
         [
           { Schedule.src = Schedule.From_server 1; dst = 2; time = 3.0 };
           { Schedule.src = Schedule.From_server 0; dst = 1; time = 1.0 };
         ])

let schedule_detects_overlap () =
  expect_invalid "overlapping caches"
    (Schedule.make
       ~caches:
         [
           { Schedule.server = 0; from_time = 0.0; to_time = 3.0 };
           { Schedule.server = 0; from_time = 1.0; to_time = 2.0 };
         ]
       ~transfers:
         [
           { Schedule.src = Schedule.From_server 0; dst = 1; time = 1.0 };
           { Schedule.src = Schedule.From_server 0; dst = 2; time = 3.0 };
         ])

let schedule_detects_dead_end_cache () =
  expect_invalid "dead-end cache"
    (Schedule.make
       ~caches:[ { Schedule.server = 0; from_time = 0.0; to_time = 5.0 } ]
       ~transfers:
         [
           { Schedule.src = Schedule.From_server 0; dst = 1; time = 1.0 };
           { Schedule.src = Schedule.From_server 0; dst = 2; time = 3.0 };
         ])

let schedule_rejects_malformed_pieces () =
  let raises f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "empty interval" true
    (raises (fun () ->
         Schedule.make ~caches:[ { Schedule.server = 0; from_time = 1.0; to_time = 1.0 } ] ~transfers:[]));
  Alcotest.(check bool) "reversed interval" true
    (raises (fun () ->
         Schedule.make ~caches:[ { Schedule.server = 0; from_time = 2.0; to_time = 1.0 } ] ~transfers:[]));
  Alcotest.(check bool) "self transfer" true
    (raises (fun () ->
         Schedule.make ~caches:[]
           ~transfers:[ { Schedule.src = Schedule.From_server 1; dst = 1; time = 1.0 } ]))

let schedule_standard_form () =
  let seq = simple_seq () in
  Alcotest.(check bool) "valid one is standard" true
    (Schedule.is_standard_form seq (valid_schedule ()));
  let nonstandard =
    Schedule.make
      ~caches:[ { Schedule.server = 0; from_time = 0.0; to_time = 3.0 } ]
      ~transfers:[ { Schedule.src = Schedule.From_server 0; dst = 2; time = 1.5 } ]
  in
  Alcotest.(check bool) "transfer off-request is not standard" false
    (Schedule.is_standard_form seq nonstandard)

let schedule_copies_at () =
  let s = valid_schedule () in
  Alcotest.(check int) "one copy mid-interval" 1 (Schedule.num_copies_at s 1.5);
  Alcotest.(check int) "none after" 0 (Schedule.num_copies_at s 3.5);
  Alcotest.(check bool) "holder query" true (Schedule.holds_copy_at s ~server:0 ~time:2.0);
  Alcotest.(check bool) "not holder" false (Schedule.holds_copy_at s ~server:1 ~time:2.0)

let schedule_union_and_render () =
  let a = Schedule.make ~caches:[ { Schedule.server = 0; from_time = 0.0; to_time = 1.0 } ] ~transfers:[] in
  let b =
    Schedule.make ~caches:[]
      ~transfers:[ { Schedule.src = Schedule.From_server 0; dst = 1; time = 1.0 } ]
  in
  let u = Schedule.union a b in
  Alcotest.(check int) "union pieces" 1 (List.length (Schedule.caches u));
  Alcotest.(check int) "union transfers" 1 (Schedule.num_transfers u);
  let rendered = Schedule.render (simple_seq ()) u in
  Alcotest.(check bool) "render mentions all servers" true
    (String.length rendered > 0
    && List.for_all
         (fun needle ->
           let rec contains i =
             i + String.length needle <= String.length rendered
             && (String.sub rendered i (String.length needle) = needle || contains (i + 1))
           in
           contains 0)
         [ "s0"; "s1"; "s2" ])

let suite =
  [
    case "cost_model: rejects non-positive rates" cost_model_validation;
    case "cost_model: rejects non-finite rates" cost_model_rejects_non_finite;
    case "cost_model: delta_t and caching" cost_model_delta_t;
    case "cost_model: counted total" cost_model_add;
    case "request: ordering" request_ordering;
    case "request: validation" request_validation;
    case "sequence: accessors on fig6" sequence_accessors;
    case "sequence: p(i) and sigma on fig6" sequence_prev_and_sigma;
    case "sequence: per-server request lists" sequence_requests_on;
    case "sequence: rejects bad input" sequence_rejects_bad_input;
    case "sequence: prefix restriction" sequence_sub;
    sequence_prev_consistency;
    case "bounds: fig6 marginal and running bounds" bounds_fig6;
    case "bounds: lambda caps the marginal bound" bounds_scale_with_lambda;
    bounds_below_optimum;
    case "schedule: cost accounting" schedule_cost_accounting;
    case "schedule: upload pricing" schedule_upload_pricing;
    case "schedule: validator accepts a feasible schedule" schedule_validates_good;
    case "schedule: detects unserved request" schedule_detects_unserved_request;
    case "schedule: validate_exn raises Invalid_schedule" schedule_validate_exn_raises_invalid_schedule;
    case "schedule: detects coverage gap" schedule_detects_coverage_gap;
    case "schedule: detects unsourced cache" schedule_detects_unsourced_cache;
    case "schedule: detects ghost transfer source" schedule_detects_ghost_transfer_source;
    case "schedule: detects overlapping caches" schedule_detects_overlap;
    case "schedule: detects dead-end cache" schedule_detects_dead_end_cache;
    case "schedule: rejects malformed pieces" schedule_rejects_malformed_pieces;
    case "schedule: standard form recognition" schedule_standard_form;
    case "schedule: copy queries" schedule_copies_at;
    case "schedule: union and rendering" schedule_union_and_render;
  ]
