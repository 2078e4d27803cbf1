(* dcache_obs: metric registration and readback, sink gating, span
   nesting, Chrome trace export, ring-overwrite accounting, and the
   determinism contract — the same seeded sweep records an identical
   trace event sequence and identical counter totals at pool widths 1
   and 4 (mirroring test_pool's byte-identical CSV check). *)

module Obs = Dcache_obs.Obs
module Clock = Dcache_obs.Clock
module Histo = Dcache_obs.Histo_log
module Prom = Dcache_obs.Prometheus
module Bench_json = Dcache_bench_common.Bench_json
module Pool = Dcache_prelude.Pool
module Rng = Dcache_prelude.Rng
open Helpers

let contains needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* see test_pool.ml: module-level pools are torn down with the process *)
let pool1 = Pool.create ~domains:1 ()
let pool4 = Pool.create ~domains:4 ()

let c_clicks = Obs.counter "test.obs.clicks"
let g_level = Obs.gauge "test.obs.level"
let sp_outer = Obs.span_name "test.obs.outer"
let sp_inner = Obs.span_name "test.obs.inner"

(* Virtual tick clock so nothing here depends on wall time; always
   restore the Noop sink and zeroed metrics for the other suites. *)
let with_recording ?capacity f =
  let r = Obs.recorder ~clock:(Clock.ticks ()) ?capacity () in
  Obs.set_sink (Obs.Recording r);
  Fun.protect
    ~finally:(fun () ->
      Obs.set_sink Obs.Noop;
      Obs.reset ())
    (fun () -> f r)

(* the Chrome trace [Obs.write_chrome_trace] writes, read back *)
let chrome_json r =
  let path = Filename.temp_file "dcache_trace" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Obs.write_chrome_trace r ~path;
      In_channel.with_open_bin path In_channel.input_all)

(* the trace's [otherData.eventsLost] *)
let events_lost r =
  match Bench_json.of_string (chrome_json r) with
  | Error e -> Alcotest.failf "the trace does not parse: %s" e
  | Ok v -> (
      match Bench_json.member "otherData" v with
      | Some od -> (
          match Bench_json.to_float (Bench_json.member "eventsLost" od) with
          | Some n -> int_of_float n
          | None -> Alcotest.fail "eventsLost missing")
      | None -> Alcotest.fail "otherData missing")

let noop_probes_are_dead () =
  Obs.reset ();
  Alcotest.(check bool) "initial sink is Noop" true
    (match Obs.sink () with Obs.Noop -> true | Obs.Recording _ -> false);
  Alcotest.(check bool) "probe is false" false (Obs.probe ());
  Obs.incr c_clicks;
  Obs.add c_clicks 7;
  Obs.set_gauge g_level 3.5;
  Obs.observe_span_ns sp_outer 15;
  Obs.spanned sp_outer (fun () -> ());
  Alcotest.(check int) "disabled incr/add left 0" 0 (Obs.counter_value c_clicks);
  check_float "disabled set_gauge left 0" 0.0 (gauge_value g_level);
  Alcotest.(check int) "disabled observe_span_ns left the histogram empty" 0
    (Histo.count (Obs.span_histo sp_outer))

(* ------------------------------------------------------ word budgets *)

(* The observability contracts the hot paths rely on, in words only:
   a probe under the Noop sink and a bump of a resolved labeled child
   (even while recording) allocate nothing, and a recorded span stays
   within 16 words. *)
let budget name limit words =
  if words > limit then Alcotest.failf "%s allocates %.6f words (budget %g)" name words limit

let noop_probe_allocates_nothing () =
  Obs.set_sink Obs.Noop;
  let hits = ref 0 in
  let iters = 1_000_000 in
  budget "a Noop Obs.probe" 0.0
    (words_per_request ~n:iters (fun () ->
         for _ = 1 to iters do
           if Obs.probe () then incr hits
         done));
  Alcotest.(check int) "the probe never fired" 0 !hits

let labeled_bump_allocates_nothing () =
  with_recording @@ fun _r ->
  let c = Obs.counter_with_label (Obs.counter_vec "test.obs.budget" ~labels:[ "lane" ]) "hot" in
  let iters = 1_000_000 in
  budget "a resolved labeled-child bump" 0.0
    (words_per_request ~n:iters (fun () ->
         for _ = 1 to iters do
           Obs.incr c
         done))

let sp_budget = Obs.span_name "test.obs.budget"

let recorded_span_budget () =
  let r = Obs.recorder ~clock:(Clock.monotonic ()) () in
  Obs.set_sink (Obs.Recording r);
  Fun.protect
    ~finally:(fun () ->
      Obs.set_sink Obs.Noop;
      Obs.reset ())
    (fun () ->
      let work = ref 0 in
      let body () = incr work in
      let iters = 100_000 in
      budget "a recorded span" 16.0
        (words_per_request ~n:iters (fun () ->
             for _ = 1 to iters do
               Obs.spanned sp_budget body
             done)))

let registration_and_readback () =
  with_recording @@ fun _r ->
  Alcotest.(check bool) "probe is true while recording" true (Obs.probe ());
  (* re-registration interns to the same cell *)
  let again = Obs.counter "test.obs.clicks" in
  Obs.incr c_clicks;
  Obs.add again 4;
  Alcotest.(check int) "incr + add through both handles" 5 (Obs.counter_value c_clicks);
  Obs.set_gauge g_level 2.5;
  check_float "gauge readback" 2.5 (gauge_value g_level)

let invalid_registrations () =
  let bad f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "bad span name rejected" true
    (bad (fun () -> Obs.span_name "test.obs.bad span"));
  Alcotest.(check bool) "tiny recorder rejected" true
    (bad (fun () -> Obs.recorder ~capacity:8 ()))

(* The Chrome export read back as (name, ph, tid) per event: the trace
   structure with every timestamp and sample value dropped. *)
let chrome_events r =
  match Bench_json.of_string (chrome_json r) with
  | Error e -> Alcotest.failf "chrome_json does not parse: %s" e
  | Ok v -> (
      match Bench_json.to_list (Bench_json.member "traceEvents" v) with
      | None -> Alcotest.fail "traceEvents missing"
      | Some events ->
          List.map
            (fun ev ->
              let str k = Option.value ~default:"" (Bench_json.to_str (Bench_json.member k ev)) in
              let tid = Bench_json.to_float (Bench_json.member "tid" ev) in
              (str "name", str "ph", int_of_float (Option.value ~default:(-1.0) tid)))
            events)

let span_tree_and_chrome_export () =
  with_recording @@ fun r ->
  Obs.spanned sp_outer (fun () -> Obs.spanned sp_inner (fun () -> ()));
  Obs.incr c_clicks;
  (* the B/E stream nests the spans as they ran *)
  let spans =
    List.filter_map
      (fun (name, ph, _) -> if ph = "B" || ph = "E" then Some (name ^ ":" ^ ph) else None)
      (chrome_events r)
  in
  Alcotest.(check (list string)) "span nesting"
    [
      "test.obs.outer:B"; "test.obs.inner:B"; "test.obs.inner:E"; "test.obs.outer:E";
    ]
    spans;
  Alcotest.(check int) "no events lost" 0 (events_lost r);
  (* the Chrome export is real JSON with the documented envelope *)
  match Bench_json.of_string (chrome_json r) with
  | Error e -> Alcotest.failf "chrome_json does not parse: %s" e
  | Ok v -> (
      (match Bench_json.to_list (Bench_json.member "traceEvents" v) with
      | Some events -> Alcotest.(check bool) "has trace events" true (List.length events > 0)
      | None -> Alcotest.fail "traceEvents missing");
      match Bench_json.member "otherData" v with
      | Some od ->
          Alcotest.(check (option string)) "schema id" (Some "dcache-trace/1")
            (Bench_json.to_str (Bench_json.member "schema" od))
      | None -> Alcotest.fail "otherData missing")

let ring_overwrite_is_accounted () =
  (* minimum-size ring (with a hand-rolled of_fn clock): 100 spans
     cannot fit, the oldest are dropped and the loss is reported; the
     export still parses *)
  let t = ref 0 in
  let clock =
    Clock.of_fn (fun () ->
        incr t;
        !t)
  in
  let r = Obs.recorder ~clock ~capacity:16 () in
  Obs.set_sink (Obs.Recording r);
  Fun.protect
    ~finally:(fun () ->
      Obs.set_sink Obs.Noop;
      Obs.reset ())
    (fun () ->
      for _ = 1 to 100 do
        Obs.spanned sp_inner (fun () -> ())
      done;
      Alcotest.(check bool) "of_fn clock advanced" true (Clock.now clock > 0);
      Alcotest.(check bool) "events lost reported" true (events_lost r > 0);
      match Bench_json.of_string (chrome_json r) with
      | Error e -> Alcotest.failf "truncated trace does not parse: %s" e
      | Ok _ -> ())

(* ------------------------------------------------------- determinism *)

(* The test_pool sweep, but what we capture is the observability side:
   the trace's (name, ph, tid) event sequence and counter totals.  The
   Parallel merge is positional by task index, and counters are
   commutative atomic sums, so both must be identical at any pool
   width. *)
let sweep pool root cells =
  let model = Dcache_core.Cost_model.make ~mu:1.0 ~lambda:2.0 () in
  let costs =
    Pool.parallel_init pool cells (fun i ->
        let rng = Rng.derive root i in
        let m = 2 + (i mod 4) in
        let n = 10 + (i mod 23) in
        let clock = ref 0.0 in
        let requests =
          Array.init n (fun _ ->
              clock := !clock +. Rng.float_in rng 0.05 1.0;
              Dcache_core.Request.make ~server:(Rng.int rng m) ~time:!clock)
        in
        let seq = Dcache_core.Sequence.create_exn ~m requests in
        Dcache_core.Offline_dp.cost (Dcache_core.Offline_dp.solve model seq))
  in
  Array.fold_left ( +. ) 0.0 costs

let observed_sweep pool =
  Obs.reset ();
  let r = Obs.recorder ~clock:(Clock.ticks ()) () in
  Obs.set_sink (Obs.Recording r);
  Fun.protect
    ~finally:(fun () -> Obs.set_sink Obs.Noop)
    (fun () ->
      let total = sweep pool (Rng.create 1234) 17 in
      (total, chrome_events r, counter_totals ()))

let trace_is_width_independent () =
  let total1, events1, counters1 = observed_sweep pool1 in
  let total4, events4, counters4 = observed_sweep pool4 in
  Obs.reset ();
  check_float "sweep result unchanged" total1 total4;
  Alcotest.(check (list (triple string string int)))
    "trace event sequence identical at widths 1 and 4" events1 events4;
  Alcotest.(check (list (pair string int))) "counter totals identical at widths 1 and 4"
    counters1 counters4;
  (* the sweep exercised the instrumented layers end to end *)
  let has_span name = List.exists (fun (n, ph, _) -> n = name && ph = "B") events1 in
  Alcotest.(check bool) "pool span present" true (has_span "pool.parallel");
  Alcotest.(check bool) "offline-dp span present" true (has_span "offline_dp.solve");
  Alcotest.(check bool) "task lanes present" true (List.exists (fun (_, _, tid) -> tid > 0) events1);
  Alcotest.(check bool) "push counter counted" true
    (List.exists (fun (k, v) -> String.equal k "streaming_dp.push" && v > 0) counters1)

(* ------------------------------------------- log-scale histograms *)

(* a histogram holding one value reads it back, at every quantile, as
   the upper bound of the value's bucket *)
let bucket_bound v =
  let h = Histo.create () in
  Histo.record h v;
  int_of_float (Histo.quantiles h [| 0.5 |]).(0)

let log_histo_buckets () =
  (* exact region: one bucket per value, negatives clamp to 0 *)
  for v = 0 to 15 do
    Alcotest.(check int) (Printf.sprintf "bucket of %d" v) v (bucket_bound v)
  done;
  Alcotest.(check int) "negative clamps to bucket 0" 0 (bucket_bound (-3));
  (* octave boundaries: 15|16 and 31|32 split buckets *)
  Alcotest.(check bool) "15 and 16 in different buckets" true (bucket_bound 15 <> bucket_bound 16);
  Alcotest.(check bool) "31 and 32 in different buckets" true (bucket_bound 31 <> bucket_bound 32);
  (* the buckets partition the value line: both ends of a bucket map
     back to it and hi + 1 starts the next bucket *)
  let lo = ref 0 in
  for b = 0 to 200 do
    let hi = bucket_bound !lo in
    Alcotest.(check bool) (Printf.sprintf "bucket %d is not empty" b) true (hi >= !lo);
    Alcotest.(check int) (Printf.sprintf "hi of bucket %d maps back" b) hi (bucket_bound hi);
    Alcotest.(check bool)
      (Printf.sprintf "hi+1 of bucket %d starts the next" b)
      true
      (bucket_bound (hi + 1) > hi);
    lo := hi + 1
  done

let log_histo_quantiles () =
  let h = Histo.create () in
  Alcotest.(check (float 0.0)) "empty quantile is 0" 0.0 (Histo.quantiles h [| 0.5 |]).(0);
  for v = 1 to 1000 do
    Histo.record h v
  done;
  Alcotest.(check int) "count" 1000 (Histo.count h);
  Alcotest.(check int) "exact sum" 500500 (Histo.sum h);
  (* quantiles overestimate by at most relative_error (bucket upper
     bound), and the batch walk agrees with single probes *)
  let probes = [| 0.5; 0.9; 0.99; 0.999 |] in
  let truth = [| 500.0; 900.0; 990.0; 999.0 |] in
  let qs = Histo.quantiles h probes in
  Array.iteri
    (fun i q ->
      let t = truth.(i) in
      Alcotest.(check bool)
        (Printf.sprintf "p%g >= true value" (100.0 *. probes.(i)))
        true (q >= t);
      Alcotest.(check bool)
        (Printf.sprintf "p%g within relative error" (100.0 *. probes.(i)))
        true
        (q <= (t *. (1.0 +. (1.0 /. 16.0))) +. 1.0))
    qs;
  (* a single value reads back as its bucket's upper bound at every q *)
  let h1 = Histo.create () in
  Histo.record h1 42;
  (* 42 sits in [42, 43], the octave [32, 63] cut into 16 *)
  let q = Histo.quantiles h1 [| 0.5; 0.999 |] in
  check_float "single value p50 is its bucket bound" 43.0 q.(0);
  check_float "single value p999 identical" 43.0 q.(1);
  Histo.reset h1;
  Alcotest.(check int) "reset zeroes count" 0 (Histo.count h1)

let log_histo_across_pool_tasks () =
  (* recording from pool tasks is plain atomic bumps into shared
     cells — the counts must equal the sequential reference *)
  let h = Histo.create () in
  let _ =
    Pool.parallel_init pool4 64 (fun i ->
        Histo.record h (i * 37 mod 1024);
        0.0)
  in
  let reference = Histo.create () in
  for i = 0 to 63 do
    Histo.record reference (i * 37 mod 1024)
  done;
  Alcotest.(check int) "pool-recorded count" (Histo.count reference) (Histo.count h);
  Alcotest.(check int) "pool-recorded sum" (Histo.sum reference) (Histo.sum h);
  (* a probe at every rank reads every recorded value's bucket *)
  let ranks = Array.init 64 (fun k -> float_of_int (k + 1) /. 64.0) in
  Alcotest.(check (array (float 0.0))) "pool-recorded buckets" (Histo.quantiles reference ranks)
    (Histo.quantiles h ranks)

(* ---------------------------------------------- Prometheus export *)

let prometheus_exposition () =
  with_recording @@ fun _r ->
  Obs.add c_clicks 5;
  Obs.set_gauge g_level 2.5;
  Obs.spanned sp_outer (fun () -> ());
  (* the readback surface the exporters are built on *)
  Alcotest.(check int) "span histo counted the span" 1 (Histo.count (Obs.span_histo sp_outer));
  Alcotest.(check bool) "the walk carries the gauge" true
    (List.exists
       (fun (k, v) -> String.equal k "test.obs.level" && v > 2.49 && v < 2.51)
       (gauge_values ()));
  let text = Prom.exposition () in
  List.iter
    (fun needle -> Alcotest.(check bool) (needle ^ " in exposition") true (contains needle text))
    [
      "# TYPE dcache_test_obs_clicks_total counter";
      "dcache_test_obs_clicks_total 5";
      "# TYPE dcache_test_obs_level gauge";
      "dcache_test_obs_level 2.5";
      "# TYPE dcache_test_obs_outer_duration_seconds summary";
      "dcache_test_obs_outer_duration_seconds{quantile=\"0.5\"}";
      "dcache_test_obs_outer_duration_seconds_count 1";
    ];
  (* the exposition passes its own golden 0.0.4 parser *)
  (match Prom.validate text with
  | Ok n -> Alcotest.(check bool) "validator counts samples" true (n > 0)
  | Error e -> Alcotest.failf "exposition invalid: %s" e);
  (* a dotted name is sanitised in the family name and kept in the
     HELP text, and a span has its four summary probes (label escaping
     is checked on a labeled child below) *)
  List.iter
    (fun needle -> Alcotest.(check bool) (needle ^ " in exposition") true (contains needle text))
    [
      "# HELP dcache_test_obs_clicks_total dcache metric test.obs.clicks\n";
      "dcache_test_obs_outer_duration_seconds{quantile=\"0.5\"} ";
      "dcache_test_obs_outer_duration_seconds{quantile=\"0.9\"} ";
      "dcache_test_obs_outer_duration_seconds{quantile=\"0.99\"} ";
      "dcache_test_obs_outer_duration_seconds{quantile=\"0.999\"} ";
      "dcache_test_obs_outer_duration_seconds_sum ";
    ];
  (* malformed expositions are rejected, naming the bad line *)
  List.iter
    (fun bad ->
      match Prom.validate bad with
      | Ok _ -> Alcotest.failf "accepted malformed exposition %S" bad
      | Error _ -> ())
    [ "dcache_bad{le=} 1\n"; "# TYPE x nonsense\n"; "9starts_with_digit 1\n"; "no_value\n" ]

(* ------------------------------------------------ labeled families *)

(* children of family [base] currently interned, read off the
   name-sorted readback *)
let interned base =
  let prefix = base ^ "{" in
  let n = String.length prefix in
  List.length
    (List.filter
       (fun (k, _) -> String.length k > n && String.sub k 0 n = prefix)
       (counter_totals ()))

let labeled_families () =
  with_recording @@ fun _r ->
  (* child identity: re-registering the family and re-resolving the
     same label lands on the same cell, whichever handle is used *)
  let v = Obs.counter_vec "test.obs.family_clicks" ~labels:[ "item" ] in
  let a = Obs.counter_with_label v "a" in
  let v' = Obs.counter_vec "test.obs.family_clicks" ~labels:[ "item" ] in
  let a' = Obs.counter_with_label v' "a" in
  Obs.incr a;
  Obs.add a' 4;
  Alcotest.(check int) "child stable across re-registration" 5 (Obs.counter_value a);
  Alcotest.(check int) "one child interned" 1 (interned "test.obs.family_clicks");
  let gv = Obs.gauge_vec "test.obs.family_depth" ~labels:[ "item" ] in
  let g = Obs.gauge_with_label gv "a\"b" in
  Obs.set_gauge g 2.5;
  check_float "gauge child readback" 2.5 (gauge_value g);
  (* encoded children render as real Prometheus labels (values
     escaped) and the scrape still passes the golden 0.0.4 parser *)
  let text = Prom.exposition () in
  List.iter
    (fun needle -> Alcotest.(check bool) (needle ^ " in exposition") true (contains needle text))
    [
      "dcache_test_obs_family_clicks_total{item=\"a\"} 5";
      "dcache_test_obs_family_depth{item=\"a\\\"b\"} 2.5";
    ];
  match Prom.validate text with
  | Ok n -> Alcotest.(check bool) "labeled exposition validates" true (n > 0)
  | Error e -> Alcotest.failf "labeled exposition invalid: %s" e

let labeled_invalid_registrations () =
  let bad f =
    try
      ignore (f ());
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "space in metric name rejected" true
    (bad (fun () -> Obs.counter "bad name"));
  Alcotest.(check bool) "reserved '{' in metric name rejected" true
    (bad (fun () -> Obs.counter "bad{name"));
  Alcotest.(check bool) "digit-leading family name rejected" true
    (bad (fun () -> Obs.counter_vec "0bad" ~labels:[ "item" ]));
  Alcotest.(check bool) "digit-leading label key rejected" true
    (bad (fun () -> Obs.counter_vec "test.obs.badkey" ~labels:[ "0item" ]));
  Alcotest.(check bool) "dotted label key rejected" true
    (bad (fun () -> Obs.counter_vec "test.obs.badkey2" ~labels:[ "it.em" ]));
  Alcotest.(check bool) "empty label set rejected" true
    (bad (fun () -> Obs.counter_vec "test.obs.nolabels" ~labels:[]));
  Alcotest.(check bool) "two-label family rejected" true
    (bad (fun () -> Obs.gauge_vec "test.obs.twolabels" ~labels:[ "item"; "shard" ]));
  Alcotest.(check bool) "max_children < 1 rejected" true
    (bad (fun () -> Obs.counter_vec "test.obs.nomax" ~labels:[ "item" ] ~max_children:0));
  (* one base name, one shape: kind and label must agree *)
  ignore (Obs.counter_vec "test.obs.vkind" ~labels:[ "item" ]);
  Alcotest.(check bool) "kind mismatch on re-registration rejected" true
    (bad (fun () -> Obs.gauge_vec "test.obs.vkind" ~labels:[ "item" ]));
  Alcotest.(check bool) "label-set mismatch on re-registration rejected" true
    (bad (fun () -> Obs.counter_vec "test.obs.vkind" ~labels:[ "shard" ]));
  (* plain metric and same-kind family cannot share a base name, from
     either registration order *)
  ignore (Obs.counter "test.obs.vplain");
  Alcotest.(check bool) "family over an existing plain counter rejected" true
    (bad (fun () -> Obs.counter_vec "test.obs.vplain" ~labels:[ "item" ]));
  ignore (Obs.counter_vec "test.obs.vfam" ~labels:[ "item" ]);
  Alcotest.(check bool) "plain counter over an existing family rejected" true
    (bad (fun () -> Obs.counter "test.obs.vfam"))

let labeled_overflow_bounded () =
  with_recording @@ fun _r ->
  let ovf () = Obs.counter_value (Obs.counter "obs.label_overflow") in
  let ovf0 = ovf () in
  let v = Obs.counter_vec "test.obs.ovf" ~labels:[ "item" ] ~max_children:3 in
  let children = List.init 10 (fun i -> Obs.counter_with_label v (Printf.sprintf "i%d" i)) in
  List.iter Obs.incr children;
  (* 3 genuine children plus the reserved catch-all, never more *)
  Alcotest.(check int) "cardinality capped at k+1" 4 (interned "test.obs.ovf");
  Alcotest.(check int) "each over-cap resolution counted" 7 (ovf () - ovf0);
  (* the 7 collapsed labels all landed on the same reserved cell *)
  let other = Obs.counter_with_label v "other" in
  Alcotest.(check int) "collapsed bumps accumulate in \"other\"" 7 (Obs.counter_value other);
  Alcotest.(check int) "re-resolving \"other\" is not an overflow" 7 (ovf () - ovf0);
  (* genuine children are untouched by the collapse *)
  Alcotest.(check int) "genuine child keeps its own count" 1
    (Obs.counter_value (List.nth children 0));
  (* the overflow counter is scrapeable like any other *)
  Alcotest.(check bool) "obs.label_overflow in exposition" true
    (contains "dcache_obs_label_overflow_total" (Prom.exposition ()))

(* Same contract as the unlabeled trace check, for labeled
   children: pre-resolved children bumped from pool tasks are plain
   atomic cells, so the whole /metrics exposition — labeled samples
   included — is byte-identical at pool widths 1 and 4 under virtual
   clocks. *)
let labeled_sweep pool =
  Obs.reset ();
  let r = Obs.recorder ~clock:(Clock.ticks ()) () in
  Obs.set_sink (Obs.Recording r);
  Fun.protect
    ~finally:(fun () -> Obs.set_sink Obs.Noop)
    (fun () ->
      let v = Obs.counter_vec "test.obs.shard_hits" ~labels:[ "shard" ] in
      let shards = Array.init 4 (fun s -> Obs.counter_with_label v (string_of_int s)) in
      let _ =
        Pool.parallel_init pool 32 (fun i ->
            Obs.add shards.(i mod 4) (i + 1);
            0.0)
      in
      Prom.exposition ())

let labeled_exposition_width_independent () =
  let e1 = labeled_sweep pool1 in
  let e4 = labeled_sweep pool4 in
  Obs.reset ();
  Alcotest.(check string) "labeled exposition byte-identical at widths 1 and 4" e1 e4;
  Alcotest.(check bool) "labeled children in the scrape" true
    (contains "dcache_test_obs_shard_hits_total{shard=\"0\"}" e1);
  match Prom.validate e1 with
  | Ok n -> Alcotest.(check bool) "labeled scrape validates" true (n > 0)
  | Error e -> Alcotest.failf "labeled exposition invalid: %s" e

(* the tightened validator: per-sample duplicate label keys and
   per-family label-set drift are rejected, consistent labeled
   families pass *)
let validate_label_discipline () =
  (match Prom.validate "x_total{a=\"1\"} 1\nx_total{a=\"2\"} 2\n" with
  | Ok n -> Alcotest.(check int) "consistent labeled samples accepted" 2 n
  | Error e -> Alcotest.failf "consistent labels rejected: %s" e);
  List.iter
    (fun bad ->
      match Prom.validate bad with
      | Ok _ -> Alcotest.failf "accepted malformed exposition %S" bad
      | Error _ -> ())
    [
      "x_total{a=\"1\",a=\"2\"} 1\n";
      "x_total{a=\"1\"} 1\nx_total{b=\"2\"} 2\n";
      "x_total{a=\"1\"} 1\nx_total 2\n";
    ]

(* -------------------------------------------- non-finite gauges *)

(* JSON has no inf/nan: a gauge set to a non-finite value must still
   leave a trace that parses, its sample written as null *)
let non_finite_gauges_export_null () =
  with_recording @@ fun r ->
  Obs.set_gauge g_level infinity;
  Obs.set_gauge g_level nan;
  Obs.set_gauge g_level neg_infinity;
  match Bench_json.of_string (chrome_json r) with
  | Error e -> Alcotest.failf "trace with non-finite gauges does not parse: %s" e
  | Ok v ->
      let samples =
        match Bench_json.to_list (Bench_json.member "traceEvents" v) with
        | None -> Alcotest.fail "traceEvents missing"
        | Some events ->
            List.filter
              (fun ev -> Bench_json.to_str (Bench_json.member "name" ev) = Some "test.obs.level")
              events
      in
      Alcotest.(check int) "three samples" 3 (List.length samples);
      List.iter
        (fun ev ->
          match Bench_json.member "args" ev with
          | Some args ->
              Alcotest.(check bool) "value is null" true
                (match Bench_json.member "value" args with
                | Some Bench_json.Null -> true
                | _ -> false)
          | None -> Alcotest.fail "sample without args")
        samples

(* ------------------------------------------------ GC-span injection *)

(* [inject_event] is the Runtime_bridge's landing strip: events with
   caller-supplied timestamps and high track ids appear as spans in
   the Chrome export alongside ordinary ones. *)
let injected_events_in_trace () =
  with_recording @@ fun r ->
  let sp = Obs.span_name "gc.test_phase" in
  (* the bridge's first GC lane *)
  let track = 256 in
  Obs.inject_event sp ~track ~is_begin:true ~ts:10;
  Obs.inject_event sp ~track ~is_begin:false ~ts:20;
  Obs.spanned sp_outer (fun () -> ());
  let json = chrome_json r in
  Alcotest.(check bool) "injected span in export" true (contains "gc.test_phase" json);
  Alcotest.(check bool) "ordinary span still in export" true (contains "test.obs.outer" json);
  Alcotest.(check bool) "gc track id in export" true
    (contains (Printf.sprintf "\"tid\": %d" track) json)

(* The live bridge, wall-clock only (never under the determinism
   contract): starting it and forcing collections must land at least
   one gc.* span in the trace.  Also the acceptance check for the
   Runtime_events integration, in-suite. *)
let runtime_bridge_gc_spans () =
  let r = Obs.recorder ~clock:(Clock.monotonic ()) () in
  Obs.set_sink (Obs.Recording r);
  Fun.protect
    ~finally:(fun () ->
      Obs.set_sink Obs.Noop;
      Obs.reset ())
    (fun () ->
      let b =
        match Dcache_obs.Runtime_bridge.install () with
        | Some b -> b
        | None -> Alcotest.fail "no bridge while recording"
      in
      Obs.spanned sp_outer (fun () ->
          Gc.minor ();
          Gc.minor ());
      let consumed = Dcache_obs.Runtime_bridge.poll b in
      Dcache_obs.Runtime_bridge.stop b;
      Alcotest.(check bool) "bridge consumed runtime events" true (consumed > 0);
      let json = chrome_json r in
      Alcotest.(check bool) "gc span interleaved with dp spans" true (contains "gc." json);
      Alcotest.(check bool) "ordinary span present too" true (contains "test.obs.outer" json))

(* ------------------------------------------- perf-gate baseline file *)

let baseline_roundtrip () =
  List.iter
    (fun ns_per_run ->
      let b = { Bench_json.git_rev = "6918caca81be"; case = "a case"; ns_per_run } in
      if Bench_json.baseline_of_string (Bench_json.baseline_to_string b) <> Ok b then
        Alcotest.failf "%h ns/run does not read back" ns_per_run)
    [ 113_412.3; 0.1 +. 0.2; 1e-300 ];
  Alcotest.check_raises "a non-finite figure is not written"
    (Invalid_argument "Bench_json.baseline_to_string: ns_per_run must be finite") (fun () ->
      ignore (Bench_json.baseline_to_string { git_rev = "x"; case = "x"; ns_per_run = nan }))

(* a stale or malformed BENCH_baseline.json fails here, not only at
   the next `make perf-gate` *)
let committed_baseline_parses () =
  let text = In_channel.with_open_text "../BENCH_baseline.json" In_channel.input_all in
  match Bench_json.baseline_of_string text with
  | Error e -> Alcotest.failf "BENCH_baseline.json: %s" e
  | Ok b ->
      Alcotest.(check string) "names the gated case" "streaming push x1000 m=6" b.case;
      Alcotest.(check bool) "finite ns/run" true (Float.is_finite b.ns_per_run)

let malformed_baselines_rejected () =
  let rejected what text =
    match Bench_json.baseline_of_string text with
    | Ok _ -> Alcotest.failf "%s parsed" what
    | Error e -> e
  in
  (* the report format the gate read before its own baseline schema *)
  let old = In_channel.with_open_text "data/bench-report-v1.json" In_channel.input_all in
  let e = rejected "the old report" old in
  if not (contains (Printf.sprintf "expected %S" Bench_json.baseline_schema) e) then
    Alcotest.failf "old report: unexpected error %S" e;
  let good =
    Bench_json.baseline_to_string { git_rev = "abc"; case = "c"; ns_per_run = 120.5 }
  in
  ignore (rejected "a truncated baseline" (String.sub good 0 (String.length good / 2)));
  ignore
    (rejected "a null figure"
       (Printf.sprintf {|{"schema": %S, "git_rev": "abc", "case": "c", "ns_per_run": null}|}
          Bench_json.baseline_schema))

(* ------------------------------------------ the scrape and its oracle *)

(* Random metric state for the differential scrape test: counters
   with extreme totals, gauges with every special float, spans never
   entered or entered with durations up to 10^15 ns, a labeled counter
   family and a labeled gauge family capped at 3 children and filled
   past the cap (into "other") with label values that need escaping.
   Between the two scrapes, [late] registers new names and resets. *)
type scrape_state = {
  totals : int list;
  levels : float list;
  durations : int list list;
  label_values : string list;
  late : bool;
}

let scrape_state_gen =
  let open QCheck.Gen in
  let total = oneof [ oneofl [ 0; 1; 42; -7; max_int; min_int ]; int ] in
  let level =
    oneof
      [
        oneofl
          [
            nan; infinity; neg_infinity; -0.0; 0.0; 5e-324; 1e-310; 1e300; -1e300; 0.1; 1.0 /. 3.0;
          ];
        float;
      ]
  in
  let duration =
    oneof [ oneofl [ 0; 1; 15; 16; 1_000_000_000 ]; int_bound 1_000_000_000_000_000 ]
  in
  let label = oneofl [ "a"; "b\\c"; "q\"uote"; "new\nline"; "plain"; "x"; "y" ] in
  map
    (fun ((totals, levels), (durations, label_values, late)) ->
      { totals; levels; durations; label_values; late })
    (pair
       (pair (list_size (int_bound 4) total) (list_size (int_bound 5) level))
       (triple
          (list_size (int_bound 2) (list_size (int_bound 5) duration))
          (list_size (int_bound 7) label)
          bool))

let scrape_state_print st =
  Printf.sprintf "totals [%s]; levels [%s]; durations [%s]; labels [%s]; late %b"
    (String.concat "; " (List.map string_of_int st.totals))
    (String.concat "; " (List.map (Printf.sprintf "%h") st.levels))
    (String.concat "; "
       (List.map (fun d -> "[" ^ String.concat "; " (List.map string_of_int d) ^ "]") st.durations))
    (String.concat "; " (List.map (Printf.sprintf "%S") st.label_values))
    st.late

let scrape_round = ref 0

let same_scrape what =
  let got = Prom.exposition () and want = Prometheus_reference.exposition () in
  if not (String.equal got want) then
    QCheck.Test.fail_reportf "%s: the scrape differs from the reference:\n%s\n--- reference ---\n%s"
      what got want

let scrape_matches_reference =
  qcheck ~count:50 "obs: the scrape prints the reference renderer's bytes"
    (QCheck.make ~print:scrape_state_print scrape_state_gen)
    (fun st ->
      incr scrape_round;
      let p = Printf.sprintf "test.scrape%d" !scrape_round in
      with_recording @@ fun _r ->
      List.iteri (fun k v -> Obs.add (Obs.counter (Printf.sprintf "%s.c%d" p k)) v) st.totals;
      List.iteri (fun k v -> Obs.set_gauge (Obs.gauge (Printf.sprintf "%s.g%d" p k)) v) st.levels;
      List.iteri
        (fun k ds ->
          let sp = Obs.span_name (Printf.sprintf "%s.s%d" p k) in
          List.iter (Obs.observe_span_ns sp) ds)
        st.durations;
      let hits = Obs.counter_vec (p ^ ".hits") ~labels:[ "item" ] ~max_children:3 in
      let depth = Obs.gauge_vec (p ^ ".depth") ~labels:[ "item" ] ~max_children:3 in
      List.iteri
        (fun k v ->
          Obs.incr (Obs.counter_with_label hits v);
          Obs.set_gauge (Obs.gauge_with_label depth v) (float_of_int k -. 0.5))
        st.label_values;
      same_scrape "first scrape";
      if st.late then begin
        let c = Obs.counter (p ^ ".late") in
        Obs.incr c;
        Obs.set_gauge (Obs.gauge (p ^ "_late.level")) (-0.0);
        ignore (Obs.span_name (p ^ ".late"));
        same_scrape "after new registrations";
        (* the walk's order covers what was registered since *)
        List.iter
          (fun family ->
            if not (contains family (Prom.exposition ())) then
              QCheck.Test.fail_reportf "%s missing from the scrape" family)
          [
            Obs.exported_name Obs.Counter (p ^ ".late") ^ " 1";
            Obs.exported_name Obs.Gauge (p ^ "_late.level") ^ " -0";
            Obs.exported_name Obs.Summary (p ^ ".late") ^ "_count 0";
          ];
        Obs.reset ();
        same_scrape "after a reset"
      end;
      true)

(* Two registry names that would render one Prometheus family are
   refused at registration, in either order, and the message names
   both.  Each pair registers under fresh names per order. *)
let colliding_names_refused () =
  let pairs =
    [
      ( "two counters",
        (fun p -> ignore (Obs.counter (p ^ ".x"))),
        fun p -> ignore (Obs.counter (p ^ "_x")) );
      ( "a counter and a gauge on its _total name",
        (fun p -> ignore (Obs.counter (p ^ ".y"))),
        fun p -> ignore (Obs.gauge (p ^ ".y_total")) );
      ( "a gauge and a span's summary",
        (fun p -> ignore (Obs.gauge (p ^ ".z_duration_seconds"))),
        fun p -> ignore (Obs.span_name (p ^ ".z")) );
      ( "a gauge and a span's _sum",
        (fun p -> ignore (Obs.gauge (p ^ ".w_duration_seconds_sum"))),
        fun p -> ignore (Obs.span_name (p ^ ".w")) );
      ( "a gauge and a span's _count",
        (fun p -> ignore (Obs.gauge (p ^ ".v_duration_seconds_count"))),
        fun p -> ignore (Obs.span_name (p ^ ".v")) );
      ( "a gauge family and a gauge",
        (fun p -> ignore (Obs.gauge_vec (p ^ ".f") ~labels:[ "item" ])),
        fun p -> ignore (Obs.gauge (p ^ "_f")) );
      ( "a counter family and a gauge on its _total name",
        (fun p -> ignore (Obs.counter_vec (p ^ ".e") ~labels:[ "item" ])),
        fun p -> ignore (Obs.gauge (p ^ ".e_total")) );
    ]
  in
  List.iteri
    (fun k (what, a, b) ->
      List.iteri
        (fun order (first, second) ->
          let p = Printf.sprintf "test.clash%d_%d" k order in
          first p;
          match second p with
          | () -> Alcotest.failf "%s (order %d): both registered" what order
          | exception Invalid_argument msg ->
              if not (contains p msg && List.length (String.split_on_char '"' msg) >= 5) then
                Alcotest.failf "%s (order %d): the message does not name both: %s" what order msg)
        [ (a, b); (b, a) ])
    pairs;
  (* suffixes that keep two kinds apart leave one base name legal *)
  ignore (Obs.counter "test.clash.ok");
  ignore (Obs.span_name "test.clash.ok");
  ignore (Obs.gauge "test.clash.ok");
  (* the product's registry, registered at module init, renders no
     name twice *)
  match Prom.validate (Prom.exposition ()) with
  | Ok n -> Alcotest.(check bool) "the registry's scrape validates" true (n > 0)
  | Error e -> Alcotest.failf "the registry's scrape is invalid: %s" e

(* The two texts the parent's renderer printed for colliding names:
   one family declared twice, once with a second unlabeled sample, and
   once as a counter and as a gauge *)
let validate_rejects_redeclared_families () =
  List.iter
    (fun (what, text) ->
      match Prom.validate text with
      | Ok n -> Alcotest.failf "%s accepted (%d samples)" what n
      | Error _ -> ())
    [
      ( "one counter family twice",
        "# HELP dcache_demo_x_total dcache metric demo.x\n# TYPE dcache_demo_x_total counter\n\
         dcache_demo_x_total 1\n# HELP dcache_demo_y_total dcache metric demo.y\n\
         # TYPE dcache_demo_y_total counter\ndcache_demo_y_total 2\n\
         # HELP dcache_demo_x_total dcache metric demo_x\n# TYPE dcache_demo_x_total counter\n\
         dcache_demo_x_total 3\n" );
      ( "a counter and a gauge of one name",
        "# HELP dcache_demo_y_total dcache metric demo.y\n# TYPE dcache_demo_y_total counter\n\
         dcache_demo_y_total 2\n# HELP dcache_demo_y_total dcache metric demo.y_total\n\
         # TYPE dcache_demo_y_total gauge\ndcache_demo_y_total 0.5\n" );
      ("a repeated series", "x_total{a=\"1\"} 1\nx_total{a=\"1\"} 2\n");
      ("a repeated unlabeled series", "x 1\nx 2\n");
    ]

(* Texts the 0.0.4 format forbids: one series twice under reordered,
   trailing-comma or empty label sets, a second HELP line, a TYPE or
   HELP line after its family's samples, and an unknown escape.  Each
   error names its line. *)
let validate_rejects_forbidden_texts () =
  List.iter
    (fun (what, line, text) ->
      match Prom.validate text with
      | Ok n -> Alcotest.failf "%s accepted (%d samples)" what n
      | Error e ->
          let prefix = Printf.sprintf "line %d: " line in
          if not (String.starts_with ~prefix e) then
            Alcotest.failf "%s: %S does not name line %d" what e line)
    [
      ("labels reordered", 2, "x{a=\"1\",b=\"2\"} 1\nx{b=\"2\",a=\"1\"} 2\n");
      ("a trailing comma", 2, "x{a=\"1\"} 1\nx{a=\"1\",} 2\n");
      ("an empty label set", 2, "x 1\nx{} 2\n");
      ("a second HELP line", 2, "# HELP x one\n# HELP x two\nx 1\n");
      ("a TYPE line after a sample", 2, "x 1\n# TYPE x gauge\n");
      ("a HELP line after a sample", 2, "x 1\n# HELP x late\n");
      ("a TYPE line after a summary's _sum", 2, "x_sum 1\n# TYPE x summary\n");
      ("a HELP line after a summary's _count", 3, "# TYPE x summary\nx_count 1\n# HELP x late\n");
      ("an unknown escape", 1, "x_total{a=\"\\q\"} 1\n");
    ];
  (* the three legal escapes pass *)
  match Prom.validate "x_total{a=\"\\\\\\\"\\n\"} 1\n" with
  | Ok n -> Alcotest.(check int) "legal escapes" 1 n
  | Error e -> Alcotest.failf "legal escapes rejected: %s" e

(* Events keep their tag, name and track at the ends of the key's
   ranges: the highest task track of a Parallel job, the GC bridge's
   track for runtime ring 127, the largest track the key holds, and
   the last name ids (registered here, after every other) *)
let ring_key_extremes () =
  with_recording @@ fun r ->
  let sp = Obs.span_name "test.ring.last_span" in
  let g = Obs.gauge "test.ring.last_gauge" in
  (* a GC lane of the bridge, which starts them at track 256 *)
  let tasks = 1000 and gc_track = 256 + 127 in
  let top = (1 lsl 30) - 1 in
  (match Obs.Parallel.job_begin ~span:sp ~task_span:sp ~wait_gauge:g ~tasks with
  | None -> Alcotest.fail "no job while recording"
  | Some j ->
      Obs.Parallel.task j (tasks - 1) (fun () -> Obs.set_gauge_cell g [| 0.75 |] 0);
      Obs.Parallel.job_end j);
  Obs.inject_event sp ~track:gc_track ~is_begin:true ~ts:1;
  Obs.inject_event sp ~track:gc_track ~is_begin:false ~ts:2;
  Obs.inject_event sp ~track:top ~is_begin:true ~ts:3;
  Obs.inject_event sp ~track:top ~is_begin:false ~ts:4;
  let events = chrome_events r in
  List.iter
    (fun (name, ph, tid) ->
      if not (List.mem (name, ph, tid) events) then
        Alcotest.failf "no %s %s event on track %d" name ph tid)
    [
      ("test.ring.last_span", "B", tasks);
      ("test.ring.last_span", "E", tasks);
      ("test.ring.last_gauge", "C", tasks);
      ("test.ring.last_span", "B", gc_track);
      ("test.ring.last_span", "E", gc_track);
      ("test.ring.last_span", "B", top);
      ("test.ring.last_span", "E", top);
      ("test.ring.last_span", "B", 0);
    ];
  Alcotest.(check bool) "the sample keeps its value" true
    (contains "\"tid\": 1000, \"args\": {\"value\": 0.750}" (chrome_json r));
  let refused f = match f () with _ -> false | exception Invalid_argument _ -> true in
  Alcotest.(check bool) "a track past the key refused" true
    (refused (fun () -> Obs.inject_event sp ~track:(top + 1) ~is_begin:true ~ts:5));
  Alcotest.(check bool) "a negative track refused" true
    (refused (fun () -> Obs.inject_event sp ~track:(-1) ~is_begin:true ~ts:5));
  Alcotest.(check bool) "a job past the key refused" true
    (refused (fun () ->
         Obs.Parallel.job_begin ~span:sp ~task_span:sp ~wait_gauge:g ~tasks:(top + 1)))

let sp_ring_a = Obs.span_name "test.ring.a"
let sp_ring_b = Obs.span_name "test.ring.b"
let g_ring = Obs.gauge "test.ring.g"

(* The events of this scenario as the five-column ring printed them,
   under the tick clock; the counters' final samples follow them *)
let five_column_trace =
  {|{
  "traceEvents": [
    {"name": "test.ring.a", "ph": "B", "ts": 0.000, "pid": 1, "tid": 0},
    {"name": "test.ring.g", "ph": "C", "ts": 0.001, "pid": 1, "tid": 0, "args": {"value": 1.500}},
    {"name": "test.ring.b", "ph": "B", "ts": 0.002, "pid": 1, "tid": 0},
    {"name": "test.ring.g", "ph": "C", "ts": 0.003, "pid": 1, "tid": 0, "args": {"value": -0.250}},
    {"name": "test.ring.b", "ph": "E", "ts": 0.004, "pid": 1, "tid": 0},
    {"name": "test.ring.a", "ph": "E", "ts": 0.005, "pid": 1, "tid": 0},
    {"name": "test.ring.b", "ph": "B", "ts": 0.005, "pid": 1, "tid": 300},
    {"name": "test.ring.b", "ph": "E", "ts": 0.009, "pid": 1, "tid": 300},
    {"name": "test.ring.a", "ph": "B", "ts": 0.006, "pid": 1, "tid": 0},
    {"name": "test.ring.g", "ph": "C", "ts": 0.008, "pid": 1, "tid": 1, "args": {"value": 1.000}},
    {"name": "test.ring.b", "ph": "B", "ts": 0.008, "pid": 1, "tid": 1},
    {"name": "test.ring.g", "ph": "C", "ts": 0.009, "pid": 1, "tid": 1, "args": {"value": 0.500}},
    {"name": "test.ring.b", "ph": "E", "ts": 0.010, "pid": 1, "tid": 1},
    {"name": "test.ring.g", "ph": "C", "ts": 0.011, "pid": 1, "tid": 2, "args": {"value": 4.000}},
    {"name": "test.ring.b", "ph": "B", "ts": 0.011, "pid": 1, "tid": 2},
    {"name": "test.ring.g", "ph": "C", "ts": 0.012, "pid": 1, "tid": 2, "args": {"value": 1.500}},
    {"name": "test.ring.b", "ph": "E", "ts": 0.013, "pid": 1, "tid": 2},
    {"name": "test.ring.g", "ph": "C", "ts": 0.014, "pid": 1, "tid": 3, "args": {"value": 7.000}},
    {"name": "test.ring.b", "ph": "B", "ts": 0.014, "pid": 1, "tid": 3},
    {"name": "test.ring.g", "ph": "C", "ts": 0.015, "pid": 1, "tid": 3, "args": {"value": 2.500}},
    {"name": "test.ring.b", "ph": "E", "ts": 0.016, "pid": 1, "tid": 3},
    {"name": "test.ring.a", "ph": "E", "ts": 0.017, "pid": 1, "tid": 0},
    {"name": "test.ring.g", "ph": "C", "ts": 0.018, "pid": 1, "tid": 0, "args": {"value": null}},
    {"name": "test.ring.a", "ph": "B", "ts": 0.019, "pid": 1, "tid": 0},
    {"name": "test.ring.a", "ph": "E", "ts": 0.019, "pid": 1, "tid": 0},
|}

let chrome_json_keeps_its_bytes () =
  with_recording @@ fun r ->
  Obs.spanned sp_ring_a (fun () ->
      Obs.set_gauge g_ring 1.5;
      Obs.spanned sp_ring_b (fun () -> Obs.set_gauge g_ring (-0.25)));
  Obs.inject_event sp_ring_b ~track:300 ~is_begin:true ~ts:5;
  Obs.inject_event sp_ring_b ~track:300 ~is_begin:false ~ts:9;
  (match
     Obs.Parallel.job_begin ~span:sp_ring_a ~task_span:sp_ring_b ~wait_gauge:g_ring ~tasks:3
   with
  | Some j ->
      for i = 0 to 2 do
        Obs.Parallel.task j i (fun () -> Obs.set_gauge g_ring (float_of_int i +. 0.5))
      done;
      Obs.Parallel.job_end j
  | None -> Alcotest.fail "no job while recording");
  Obs.set_gauge g_ring nan;
  (* a span still open when the trace is written *)
  let json = Obs.spanned sp_ring_a (fun () -> chrome_json r) in
  if not (String.starts_with ~prefix:five_column_trace json) then
    Alcotest.failf "the trace's events differ:\n%s" json

(* A warm scrape of the serve registry after one serve-metrics batch
   (four 500-request items, each audited and re-solved, under the
   Recording sink serve-metrics installs) allocates its text once, as
   the returned string, plus a box and a string per float value: well
   under twice the text's words. *)
let warm_scrape_budget () =
  let r = Obs.recorder () in
  Obs.set_sink (Obs.Recording r);
  Fun.protect
    ~finally:(fun () ->
      Obs.set_sink Obs.Noop;
      Obs.reset ())
    (fun () ->
      let open Dcache_core in
      let m = 4 in
      let spec =
        {
          Dcache_workload.Generator.m;
          n = 500;
          arrival = Dcache_workload.Arrival.Poisson { rate = 1.0 };
          placement = Dcache_workload.Placement.Uniform_random;
        }
      in
      let module Auditor = Dcache_sim.Auditor in
      for k = 0 to 3 do
        let seq = Dcache_workload.Generator.generate_seeded ~seed:(k + 1) spec in
        let auditor = Auditor.create Cost_model.unit ~m ~item:(Printf.sprintf "item%d" k) in
        for j = 1 to Sequence.n seq do
          Auditor.feed auditor ~server:(Sequence.server seq j) ~time:(Sequence.time seq j)
        done;
        ignore (Auditor.finish auditor);
        ignore (Solve_cache.solve Cost_model.unit seq)
      done;
      Solve_cache.clear ();
      ignore (Prom.exposition ());
      let text = ref "" in
      let words = words_per_request ~n:1 (fun () -> text := Prom.exposition ()) in
      let text_words = float_of_int (String.length !text) /. float_of_int (Sys.word_size / 8) in
      budget "a warm scrape, in words of its text" 2.0 (words /. text_words))

(* The ring is three words per event: a recorder of n events
   allocates 3n words and a few dozen more *)
let recorder_budget () =
  let n = 100_000 in
  budget "Obs.recorder ~capacity:100_000"
    (float_of_int ((3 * n) + 64))
    (words_per_request ~n:1 (fun () -> Obs.recorder ~capacity:n ()))

let suite =
  [
    case "obs: Noop probes are dead" noop_probes_are_dead;
    case "obs: registration interns, readback reads" registration_and_readback;
    case "obs: invalid registrations rejected" invalid_registrations;
    case "obs: span tree and Chrome export" span_tree_and_chrome_export;
    case "obs: ring overwrite accounted" ring_overwrite_is_accounted;
    case "obs: trace structure and counters are width-independent" trace_is_width_independent;
    case "obs: log-histogram bucket placement and boundaries" log_histo_buckets;
    case "obs: log-histogram quantile readback" log_histo_quantiles;
    case "obs: log-histogram recording across pool tasks" log_histo_across_pool_tasks;
    case "obs: Prometheus exposition golden" prometheus_exposition;
    case "obs: labeled children resolve, intern and render" labeled_families;
    case "obs: labeled registration rejects bad shapes" labeled_invalid_registrations;
    case "obs: labeled cardinality bounded with overflow accounting" labeled_overflow_bounded;
    case "obs: labeled exposition is width-independent" labeled_exposition_width_independent;
    case "obs: validator enforces label discipline" validate_label_discipline;
    case "obs: non-finite gauges export as JSON null" non_finite_gauges_export_null;
    case "obs: injected events land in the trace" injected_events_in_trace;
    case "obs: runtime bridge records GC spans" runtime_bridge_gc_spans;
    case "obs: a Noop probe allocates nothing" noop_probe_allocates_nothing;
    case "obs: a resolved labeled-child bump allocates nothing" labeled_bump_allocates_nothing;
    case "obs: a recorded span stays within 16 words" recorded_span_budget;
    case "obs: perf-gate baseline round-trips" baseline_roundtrip;
    case "obs: the committed perf-gate baseline parses" committed_baseline_parses;
    case "obs: malformed perf-gate baselines are rejected" malformed_baselines_rejected;
    scrape_matches_reference;
    case "obs: two names that render one family are refused" colliding_names_refused;
    case "obs: validate rejects a second TYPE and a repeated series"
      validate_rejects_redeclared_families;
    case "obs: ring events keep tag, name and track at the key's extremes" ring_key_extremes;
    case "obs: chrome_json prints the five-column ring's bytes" chrome_json_keeps_its_bytes;
    case "obs: a warm scrape of the serve registry stays within 2x its text" warm_scrape_budget;
    case "obs: a recorder's ring is three words per event" recorder_budget;
    case "obs: validate rejects what the 0.0.4 format forbids" validate_rejects_forbidden_texts;
  ]
