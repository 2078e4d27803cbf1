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
  (* a window lambda / mu that underflows to 0 would make SC's expiries
     nan; a subnormal window still works *)
  rejects "lambda / mu underflows to 0" (fun () -> Cost_model.make ~mu:1e200 ~lambda:1e-200 ());
  Alcotest.(check bool) "a subnormal window is accepted" true
    (Cost_model.delta_t (Cost_model.make ~mu:1e160 ~lambda:1e-160 ()) > 0.);
  let m = Cost_model.make ~upload:infinity ~mu:1.0 ~lambda:2.0 () in
  Alcotest.(check bool) "upload = inf accepted" true (Float.equal m.Cost_model.upload infinity)

let cost_model_delta_t () =
  let model = Cost_model.make ~mu:2.0 ~lambda:5.0 () in
  check_float "delta_t" 2.5 (Cost_model.delta_t model);
  check_float "caching" 6.0
    (Schedule.caching_cost model
       (Schedule.make ~caches:[ { Schedule.server = 0; from_time = 0.0; to_time = 3.0 } ] ~transfers:[]));
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
  let prev = Sequence.prevs seq in
  Alcotest.(check int) "one entry per index in [0, n]" 9 (Array.length prev);
  Alcotest.(check int) "p(0)" (-1) prev.(0);
  (* p(4) = 0 (server 0's boundary request), sigma_4 = 1.4 *)
  Alcotest.(check int) "p(4)" 0 prev.(4);
  check_float "sigma_4" 1.4 (sigma seq prev 4);
  (* first request on s^2: dummy predecessor *)
  Alcotest.(check int) "p(1)" (-1) prev.(1);
  Alcotest.(check bool) "sigma_1 infinite" true (sigma seq prev 1 = infinity);
  (* p(6) = 5: consecutive requests on server 1 *)
  Alcotest.(check int) "p(6)" 5 prev.(6);
  check_float "sigma_6" 0.6 (sigma seq prev 6);
  Alcotest.(check int) "p(7) = 2" 2 prev.(7)

(* the requests on a server, ascending, read by following p(i) back
   from the server's last request *)
let requests_on seq s =
  let prev = Sequence.prevs seq in
  let rec last i = if i < 0 || Sequence.server seq i = s then i else last (i - 1) in
  let rec chain i acc = if i < 0 then acc else chain prev.(i) (i :: acc) in
  chain (last (Sequence.n seq)) []

let sequence_requests_on () =
  let seq = fig6 () in
  Alcotest.(check (list int)) "server 0 incl. r_0" [ 0; 4 ] (requests_on seq 0);
  Alcotest.(check (list int)) "server 1" [ 1; 5; 6 ] (requests_on seq 1);
  Alcotest.(check (list int)) "server 3" [ 3; 8 ] (requests_on seq 3)

let sequence_rejects_bad_input () =
  let bad m reqs =
    match Sequence.create_exn ~m (Array.of_list (List.map (fun (s, t) -> { Request.server = s; time = t }) reqs)) with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "m = 0" true (bad 0 []);
  Alcotest.(check bool) "m beyond any array" true (bad max_int []);
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

(* [Sequence.prevs] against the quadratic definition: the greatest
   j < i with s_j = s_i, r_0 included, or -1 *)
let sequence_prev_consistency =
  qcheck "sequence: p(i) is the latest earlier request on the same server"
    (problem_arbitrary ~max_m:8 ~max_n:60 ())
    (fun { seq; _ } ->
      let n = Sequence.n seq and prev = Sequence.prevs seq in
      let expected i =
        let rec scan j =
          if j < 0 || Sequence.server seq j = Sequence.server seq i then j else scan (j - 1)
        in
        scan (i - 1)
      in
      Array.length prev = n + 1
      && List.for_all (fun i -> prev.(i) = expected i) (List.init (n + 1) Fun.id))

(* ---------------------------------------------------------------- bounds *)

let bounds_fig6 () =
  let model = Cost_model.unit in
  let seq = fig6 () in
  let b = Bounds.marginal model seq in
  let expected = [| 0.0; 1.0; 1.0; 1.0; 1.0; 1.0; 0.6; 1.0; 1.0 |] in
  Array.iteri (fun i e -> check_float (Printf.sprintf "b_%d" i) e b.(i)) expected;
  check_float "B_n" 7.6 (Bounds.lower_bound model seq);
  check_float "coverage bound" 4.4 (model.mu *. Sequence.horizon seq);
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
    (problem_arbitrary ~with_upload:true ())
    (fun { model; seq } ->
      let opt = Offline_dp.cost (Offline_dp.solve model seq) in
      Dcache_prelude.Float_cmp.approx_le (Bounds.lower_bound model seq) opt
      && Dcache_prelude.Float_cmp.approx_le (model.mu *. Sequence.horizon seq) opt)

(* Uploads cheaper than transfers: every request can be served for
   beta = 0.1, so a bound that priced each transfer at lambda read 20.0
   here, above the optimum of 11.01. *)
let bounds_price_uploads () =
  let model = Cost_model.make ~upload:0.1 ~mu:1.0 ~lambda:1.0 () in
  let seq =
    Sequence.of_list ~m:2
      (List.concat_map
         (fun k ->
           let t = float_of_int k in
           [ (0, t); (1, t +. 0.01) ])
         (List.init 10 (fun k -> k + 1)))
  in
  let opt = Offline_dp.cost (Offline_dp.solve model seq) in
  check_float "optimum" 11.01 opt;
  check_float "B_n prices each request at beta" 2.0 (Bounds.lower_bound model seq);
  check_le "B_n <= OPT" (Bounds.lower_bound model seq) opt

let bits = Int64.bits_of_float

let same_bits a b =
  Array.length a = Array.length b && Array.for_all2 (fun x y -> bits x = bits y) a b

let bounds_are_the_dp_bounds =
  qcheck "bounds: b, B and B_n are the DP's bit for bit, uploads included"
    (problem_arbitrary ~with_upload:true ())
    (fun { model; seq } ->
      let r = Offline_dp.solve model seq in
      let big_b = Offline_dp.running_bounds r in
      bits (Bounds.lower_bound model seq) = bits big_b.(Sequence.n seq)
      && same_bits (Bounds.running model seq) big_b
      && same_bits (Bounds.marginal model seq) (Offline_dp.marginal_bounds r))

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
  match Schedule.validate (simple_seq ()) infeasible with
  | Ok () -> Alcotest.fail "validate accepted an infeasible schedule"
  | Error (_ :: _) -> ()
  | Error [] -> Alcotest.fail "validate's error carried no violations"

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
  let u =
    Schedule.make ~caches:(Schedule.caches a @ Schedule.caches b)
      ~transfers:(Schedule.transfers a @ Schedule.transfers b)
  in
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


(* ------------------------------------------ schedule vs the reference *)

module R = Schedule_reference

(* Piece times come from a small pool so that pieces tie: equal
   times, -0. beside 0., 1-ulp neighbours, and a gap inside
   Float_cmp's tolerance. *)
let time_pool =
  [| 0.0; -0.0; 0.5; Float.pred 1.0; 1.0; Float.succ 1.0; 1.5; 2.0; 2.0 +. 1e-12; 3.0 |]

let num_servers = 5

(* mostly well-formed pieces; about one in thirty is malformed *)
let cache_gen =
  let open QCheck.Gen in
  let bad = oneofl [ -1.0; nan; infinity ] in
  frequency
    [
      ( 30,
        map3
          (fun server a b ->
            let from_time = Float.min a b and to_time = Float.max a b in
            let to_time = if to_time <= from_time then from_time +. 0.5 else to_time in
            { Schedule.server; from_time; to_time })
          (int_range 0 (num_servers - 1))
          (oneofa time_pool) (oneofa time_pool) );
      ( 1,
        map3
          (fun server from_time to_time -> { Schedule.server; from_time; to_time })
          (int_range (-1) (num_servers - 1))
          (frequency [ (2, oneofa time_pool); (1, bad) ])
          (frequency [ (2, oneofa time_pool); (1, bad) ]) );
    ]

let transfer_gen =
  let open QCheck.Gen in
  let source =
    frequency
      [
        (3, map (fun s -> Schedule.From_server s) (int_range 0 (num_servers - 1)));
        (1, return Schedule.From_external);
      ]
  in
  let well_formed src dst time =
    let src =
      match src with
      | Schedule.From_server s when s = dst -> Schedule.From_server ((s + 1) mod num_servers)
      | src -> src
    in
    { Schedule.src; dst; time }
  in
  frequency
    [
      (30, map3 well_formed source (int_range 0 (num_servers - 1)) (oneofa time_pool));
      ( 1,
        map3
          (fun src dst time -> { Schedule.src; dst; time })
          (frequency [ (2, source); (1, return (Schedule.From_server (-1))) ])
          (int_range (-1) (num_servers - 1))
          (oneofa (Array.append time_pool [| -1.0; nan; infinity |])) );
    ]

(* [base] plus repeats of some of its pieces, shuffled *)
let with_repeats base_gen twin =
  let open QCheck.Gen in
  let* base = list_size (int_range 0 7) base_gen in
  let* repeats =
    if base = [] then return [] else list_size (int_range 0 3) (oneofl base >>= twin)
  in
  shuffle_l (base @ repeats)

(* a repeated transfer keeps its (time, dst) and may change source *)
let transfer_twin (tr : Schedule.transfer) =
  let open QCheck.Gen in
  map
    (fun src ->
      match src with
      | Schedule.From_server s when s = tr.dst -> tr
      | src -> { tr with src })
    (frequency
       [
         (1, return tr.src);
         (1, return Schedule.From_external);
         (2, map (fun s -> Schedule.From_server s) (int_range 0 (num_servers - 1)));
       ])

(* requests at pool times, so pieces start, end and arrive on them *)
let pool_sequence_gen =
  let open QCheck.Gen in
  let* m = int_range 1 num_servers in
  let* picks = list_size (int_range 0 8) (oneofa time_pool) in
  let times = List.sort_uniq Float.compare (List.filter (fun t -> t > 0.0) picks) in
  let* servers = list_size (return (List.length times)) (int_range 0 (m - 1)) in
  return (Sequence.of_list ~m (List.combine servers times))

let model_gen =
  let open QCheck.Gen in
  let* mu = float_range 0.1 4.0 and* lambda = float_range 0.1 4.0 in
  let* upload = oneof [ return infinity; float_range 0.1 4.0 ] in
  return (Cost_model.make ~upload ~mu ~lambda ())

type pieces = {
  p_caches : Schedule.cache list;
  p_transfers : Schedule.transfer list;
  p_model : Cost_model.t;
  p_seq : Sequence.t;
}

let pieces_print p =
  let source = function Schedule.From_server s -> Printf.sprintf "s%d" s | From_external -> "ext" in
  Format.asprintf "caches [%s]@ transfers [%s]@ %a@ %a"
    (String.concat "; "
       (List.map
          (fun (c : Schedule.cache) ->
            Printf.sprintf "H(s%d, %h, %h)" c.server c.from_time c.to_time)
          p.p_caches))
    (String.concat "; "
       (List.map
          (fun (tr : Schedule.transfer) ->
            Printf.sprintf "Tr(%s -> s%d, %h)" (source tr.src) tr.dst tr.time)
          p.p_transfers))
    pp_model p.p_model pp_seq p.p_seq

let pieces_arbitrary =
  QCheck.make ~print:pieces_print
    QCheck.Gen.(
      let* p_caches = with_repeats cache_gen return in
      let* p_transfers = with_repeats transfer_gen transfer_twin in
      let* p_model = model_gen and* p_seq = pool_sequence_gen in
      return { p_caches; p_transfers; p_model; p_seq })

let cache_key (c : Schedule.cache) = (c.server, bits c.from_time, bits c.to_time)
let transfer_key (tr : Schedule.transfer) = (tr.src, tr.dst, bits tr.time)

(* Every query of the columnar schedule [s] against the list-based
   reference [r] built from the same pieces, on [seq] and [model]. *)
let agree ~model ~seq s r =
  let differ what = QCheck.Test.fail_reportf "%s differs from the reference" what in
  let check what ok = if not ok then differ what in
  check "caches" (List.map cache_key (Schedule.caches s) = List.map cache_key (R.caches r));
  check "transfers"
    (List.map transfer_key (Schedule.transfers s) = List.map transfer_key (R.transfers r));
  check "caching_cost" (bits (Schedule.caching_cost model s) = bits (R.caching_cost model r));
  check "transfer_cost" (bits (Schedule.transfer_cost model s) = bits (R.transfer_cost model r));
  check "cost" (bits (Schedule.cost model s) = bits (R.cost model r));
  check "num_transfers" (Schedule.num_transfers s = R.num_transfers r);
  let probes =
    Array.to_list time_pool @ List.init (Sequence.n seq) (fun i -> Sequence.time seq (i + 1))
  in
  List.iter
    (fun time ->
      check "num_copies_at" (Schedule.num_copies_at s time = R.num_copies_at r time);
      for server = 0 to num_servers do
        check "holds_copy_at"
          (Schedule.holds_copy_at s ~server ~time = R.holds_copy_at r ~server ~time)
      done)
    probes;
  check "validate" (Schedule.validate seq s = R.validate seq r);
  check "is_standard_form" (Schedule.is_standard_form seq s = R.is_standard_form seq r);
  check "render" (Schedule.render seq s = R.render seq r);
  check "pp" (Format.asprintf "%a" Schedule.pp s = Format.asprintf "%a" R.pp r);
  true

let outcome f = match f () with v -> Ok v | exception Invalid_argument msg -> Error msg

(* [make]'s source encoding: a negative [From_server] reads as [-2] *)
let src_code = function Schedule.From_server s -> if s < 0 then -2 else s | From_external -> -1

(* [Schedule.of_sorted_columns] on exactly these pieces, in this order *)
let of_sorted caches transfers =
  let cs = Array.of_list caches and ts = Array.of_list transfers in
  Schedule.of_sorted_columns
    ~server:(Array.map (fun (c : Schedule.cache) -> c.server) cs)
    ~from_time:(Array.map (fun (c : Schedule.cache) -> c.from_time) cs)
    ~to_time:(Array.map (fun (c : Schedule.cache) -> c.to_time) cs)
    ~src:(Array.map (fun (tr : Schedule.transfer) -> src_code tr.src) ts)
    ~dst:(Array.map (fun (tr : Schedule.transfer) -> tr.dst) ts)
    ~time:(Array.map (fun (tr : Schedule.transfer) -> tr.time) ts)

let caches_out_of_order = "Schedule.of_sorted_columns: caches out of (server, from, to) order"
let transfers_out_of_order = "Schedule.of_sorted_columns: transfers out of (time, dst) order"

let schedule_matches_reference =
  qcheck ~count:1000 "schedule: agrees with the list-based reference" pieces_arbitrary (fun p ->
      let caches = p.p_caches and transfers = p.p_transfers in
      match
        ( outcome (fun () -> Schedule.make ~caches ~transfers),
          outcome (fun () -> R.make ~caches ~transfers) )
      with
      | Error a, Error b ->
          if a <> b then QCheck.Test.fail_reportf "make raised %S, the reference %S" a b;
          (* the piece checks come before the order check *)
          (match outcome (fun () -> of_sorted caches transfers) with
          | Error c when c = a -> ()
          | Error c -> QCheck.Test.fail_reportf "make raised %S, of_sorted_columns %S" a c
          | Ok _ -> QCheck.Test.fail_reportf "only of_sorted_columns accepts the pieces: %S" a);
          true
      | Ok _, Error b -> QCheck.Test.fail_reportf "only the reference rejects the pieces: %S" b
      | Error a, Ok _ -> QCheck.Test.fail_reportf "only make rejects the pieces: %S" a
      | Ok s, Ok r ->
          let model = p.p_model and seq = p.p_seq in
          ignore (agree ~model ~seq s r);
          (* the sorted constructor takes the pieces as they are
             stored, and rejects them in any other order *)
          ignore (agree ~model ~seq (of_sorted (Schedule.caches s) (Schedule.transfers s)) r);
          let in_order key stored given = List.map key stored = List.map key given in
          let expected =
            if not (in_order cache_key (Schedule.caches s) caches) then Error caches_out_of_order
            else if not (in_order transfer_key (Schedule.transfers s) transfers) then
              Error transfers_out_of_order
            else Ok ()
          in
          match (expected, outcome (fun () -> of_sorted caches transfers)) with
          | Ok (), Ok given -> agree ~model ~seq given r
          | Error a, Error b when a = b -> true
          | Ok (), Error b ->
              QCheck.Test.fail_reportf "of_sorted_columns rejects sorted pieces: %S" b
          | Error a, Error b ->
              QCheck.Test.fail_reportf "expected %S, of_sorted_columns raised %S" a b
          | Error a, Ok _ ->
              QCheck.Test.fail_reportf "of_sorted_columns accepts pieces out of order (%S)" a)

(* Hand-made cases the random pieces may miss: ties on the first key,
   and columns of one kind that differ in length *)
let sorted_constructor_checks () =
  let rejects what expected f =
    match outcome f with
    | Error msg -> Alcotest.(check string) what expected msg
    | Ok _ -> Alcotest.failf "%s: accepted" what
  in
  let cache server from_time to_time = { Schedule.server; from_time; to_time } in
  let transfer dst time = { Schedule.src = Schedule.From_external; dst; time } in
  rejects "servers descend" caches_out_of_order (fun () ->
      of_sorted [ cache 1 0.0 1.0; cache 0 2.0 3.0 ] []);
  rejects "starts descend on one server" caches_out_of_order (fun () ->
      of_sorted [ cache 0 2.0 3.0; cache 0 0.0 1.0 ] []);
  rejects "ends descend on one start" caches_out_of_order (fun () ->
      of_sorted [ cache 0 0.0 2.0; cache 0 0.0 1.0 ] []);
  rejects "times descend" transfers_out_of_order (fun () ->
      of_sorted [] [ transfer 0 2.0; transfer 1 1.0 ]);
  rejects "destinations descend at one time" transfers_out_of_order (fun () ->
      of_sorted [] [ transfer 1 1.0; transfer 0 1.0 ]);
  rejects "cache columns" "Schedule: cache columns differ in length" (fun () ->
      Schedule.of_sorted_columns ~server:[| 0 |] ~from_time:[| 0.0 |] ~to_time:[||] ~src:[||]
        ~dst:[||] ~time:[||]);
  rejects "transfer columns" "Schedule: transfer columns differ in length" (fun () ->
      Schedule.of_sorted_columns ~server:[||] ~from_time:[||] ~to_time:[||] ~src:[| -1 |]
        ~dst:[| 0 |] ~time:[||]);
  let s = of_sorted [ cache 0 0.0 1.0; cache 0 1.0 2.0; cache 1 0.5 1.0 ] [ transfer 1 0.5 ] in
  Alcotest.(check int) "pieces kept" 3 (List.length (Schedule.caches s))

(* The solver's own schedules, where [validate] says [Ok] *)
let solver_schedule_matches_reference =
  qcheck ~count:300 "schedule: solver schedules agree with the list-based reference"
    (problem_arbitrary ~with_upload:true ())
    (fun { model; seq } ->
      let s = Offline_dp.schedule (Offline_dp.solve model seq) in
      let r = R.make ~caches:(Schedule.caches s) ~transfers:(Schedule.transfers s) in
      Schedule.validate seq s = Ok () && agree ~model ~seq s r)

(* A rate below the smallest normal float keeps too few bits for the
   DP to order its candidates: at mu = lambda = 5e-324 a 60-request
   trace got 35 transfers instead of the 33 every normal scale gives.
   Each rate is refused by name; the smallest normal float is not. *)
let cost_model_rejects_subnormal_rates () =
  let rejects what f =
    match f () with
    | (_ : Cost_model.t) -> Alcotest.failf "%s was accepted" what
    | exception Invalid_argument msg ->
        let name = List.hd (String.split_on_char ' ' what) in
        let expected = Printf.sprintf "Cost_model.make: %s is subnormal" name in
        Alcotest.(check string) what expected msg
  in
  List.iter
    (fun rate ->
      let at name = Printf.sprintf "%s = %g" name rate in
      rejects (at "mu") (fun () -> Cost_model.make ~mu:rate ~lambda:1.0 ());
      rejects (at "lambda") (fun () -> Cost_model.make ~mu:1.0 ~lambda:rate ());
      rejects (at "upload") (fun () -> Cost_model.make ~upload:rate ~mu:1.0 ~lambda:1.0 ()))
    [ 5e-324; 1e-310; Float.pred Float.min_float ];
  let smallest = Float.min_float in
  let model = Cost_model.make ~upload:smallest ~mu:smallest ~lambda:smallest () in
  check_float "the smallest normal rates are kept" 1.0 (Cost_model.delta_t model)

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
    case "bounds: uploads lower the marginal bound" bounds_price_uploads;
    bounds_are_the_dp_bounds;
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
    schedule_matches_reference;
    case "schedule: the sorted constructor checks order and lengths" sorted_constructor_checks;
    solver_schedule_matches_reference;
    case "cost_model: rejects subnormal rates" cost_model_rejects_subnormal_rates;
  ]
