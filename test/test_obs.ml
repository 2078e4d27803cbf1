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

let noop_probes_are_dead () =
  Obs.reset ();
  Alcotest.(check bool) "initial sink is Noop" true
    (match Obs.sink () with Obs.Noop -> true | Obs.Recording _ -> false);
  Alcotest.(check bool) "probe is false" false (Obs.probe ());
  Obs.incr c_clicks;
  Obs.add c_clicks 7;
  Obs.set_gauge g_level 3.5;
  Obs.observe_span_ns sp_outer 15;
  Obs.enter sp_outer;
  Obs.leave sp_outer;
  Alcotest.(check int) "disabled incr/add left 0" 0 (Obs.counter_value c_clicks);
  check_float "disabled set_gauge left 0" 0.0 (Obs.gauge_value g_level);
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
  check_float "gauge readback" 2.5 (Obs.gauge_value g_level)

let invalid_registrations () =
  let bad f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "bad span name rejected" true
    (bad (fun () -> Obs.span_name "test.obs.bad span"));
  Alcotest.(check bool) "tiny recorder rejected" true
    (bad (fun () -> Obs.recorder ~capacity:8 ()))

(* The Chrome export read back as (name, ph, tid) per event: the trace
   structure with every timestamp and sample value dropped. *)
let chrome_events r =
  match Bench_json.of_string (Obs.chrome_json r) with
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
  Obs.spanned sp_outer (fun () ->
      Obs.spanned sp_inner (fun () -> ());
      Obs.enter sp_inner;
      Obs.leave sp_inner);
  Obs.incr c_clicks;
  (* the B/E stream nests the spans as they ran *)
  let spans =
    List.filter_map
      (fun (name, ph, _) -> if ph = "B" || ph = "E" then Some (name ^ ":" ^ ph) else None)
      (chrome_events r)
  in
  Alcotest.(check (list string)) "span nesting"
    [
      "test.obs.outer:B"; "test.obs.inner:B"; "test.obs.inner:E"; "test.obs.inner:B";
      "test.obs.inner:E"; "test.obs.outer:E";
    ]
    spans;
  Alcotest.(check int) "no events lost" 0 (Obs.events_lost r);
  (* the Chrome export is real JSON with the documented envelope *)
  match Bench_json.of_string (Obs.chrome_json r) with
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
      Alcotest.(check bool) "events lost reported" true (Obs.events_lost r > 0);
      match Bench_json.of_string (Obs.chrome_json r) with
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
      (total, chrome_events r, Obs.counter_totals ()))

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

let log_histo_buckets () =
  (* exact region: one bucket per value, negatives clamp to 0 *)
  for v = 0 to 15 do
    Alcotest.(check int) (Printf.sprintf "bucket_of %d" v) v (Histo.bucket_of v)
  done;
  Alcotest.(check int) "negative clamps to bucket 0" 0 (Histo.bucket_of (-3));
  (* octave boundaries: 15|16 and 31|32 split buckets *)
  Alcotest.(check bool) "15 and 16 in different buckets" true
    (Histo.bucket_of 15 <> Histo.bucket_of 16);
  Alcotest.(check bool) "31 and 32 in different buckets" true
    (Histo.bucket_of 31 <> Histo.bucket_of 32);
  (* bucket_bounds partitions the value line: both ends of a bucket
     map back to it and hi + 1 starts the next bucket *)
  for b = 0 to 200 do
    let lo, hi = Histo.bucket_bounds b in
    Alcotest.(check int) (Printf.sprintf "lo of bucket %d maps back" b) b (Histo.bucket_of lo);
    Alcotest.(check int) (Printf.sprintf "hi of bucket %d maps back" b) b (Histo.bucket_of hi);
    Alcotest.(check int)
      (Printf.sprintf "hi+1 of bucket %d starts the next" b)
      (b + 1) (Histo.bucket_of (hi + 1))
  done;
  Alcotest.(check bool) "out-of-range bounds rejected" true
    (try
       ignore (Histo.bucket_bounds Histo.num_buckets);
       false
     with Invalid_argument _ -> true)

let log_histo_quantiles () =
  let h = Histo.create () in
  Alcotest.(check (float 0.0)) "empty quantile is 0" 0.0 (Histo.quantile h 0.5);
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
        (q <= (t *. (1.0 +. Histo.relative_error)) +. 1.0);
      check_float "batch agrees with single probe" (Histo.quantile h probes.(i)) q)
    qs;
  (* a single value reads back as its bucket's upper bound at every q *)
  let h1 = Histo.create () in
  Histo.record h1 42;
  let _, hi = Histo.bucket_bounds (Histo.bucket_of 42) in
  check_float "single value p50 is its bucket bound" (float_of_int hi) (Histo.quantile h1 0.5);
  check_float "single value p999 identical" (float_of_int hi) (Histo.quantile h1 0.999);
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
  Alcotest.(check (array int)) "pool-recorded buckets" (Histo.counts reference) (Histo.counts h)

(* ---------------------------------------------- Prometheus export *)

let prometheus_exposition () =
  with_recording @@ fun _r ->
  Obs.add c_clicks 5;
  Obs.set_gauge g_level 2.5;
  Obs.spanned sp_outer (fun () -> ());
  (* the readback surface the exporters are built on *)
  Alcotest.(check int) "span histo counted the span" 1 (Histo.count (Obs.span_histo sp_outer));
  Alcotest.(check bool) "gauge_values carries the gauge" true
    (List.exists
       (fun (k, v) -> String.equal k "test.obs.level" && v > 2.49 && v < 2.51)
       (Obs.gauge_values ()));
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
  (* name sanitisation and label escaping *)
  Alcotest.(check string) "metric_name sanitises dots" "streaming_dp_push"
    (Prom.metric_name "streaming_dp.push");
  Alcotest.(check string) "label escaping" "a\\\\b\\\"c\\nd" (Prom.escape_label "a\\b\"c\nd");
  Alcotest.(check string) "help escaping" "x\\\\y\\nz" (Prom.escape_help "x\\y\nz");
  Alcotest.(check string) "content type" "text/plain; version=0.0.4" Prom.content_type;
  Alcotest.(check int) "four summary probes" 4 (Array.length Prom.quantile_probes);
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
       (Obs.counter_totals ()))

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
  check_float "gauge child readback" 2.5 (Obs.gauge_value g);
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
  match Bench_json.of_string (Obs.chrome_json r) with
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
  let track = Dcache_obs.Runtime_bridge.gc_track_base in
  Obs.inject_event sp ~track ~is_begin:true ~ts:10;
  Obs.inject_event sp ~track ~is_begin:false ~ts:20;
  Obs.spanned sp_outer (fun () -> ());
  let json = Obs.chrome_json r in
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
      let b = Dcache_obs.Runtime_bridge.start () in
      Obs.spanned sp_outer (fun () ->
          Gc.minor ();
          Gc.minor ());
      let consumed = Dcache_obs.Runtime_bridge.poll b in
      Dcache_obs.Runtime_bridge.stop b;
      Alcotest.(check bool) "bridge consumed runtime events" true (consumed > 0);
      let json = Obs.chrome_json r in
      Alcotest.(check bool) "gc span interleaved with dp spans" true (contains "gc." json);
      Alcotest.(check bool) "ordinary span present too" true (contains "test.obs.outer" json))

(* -------------------------------------------- bench JSON round-trip *)

let bench_json_roundtrip () =
  let entry =
    {
      Bench_json.group = "g";
      name = "case one";
      ns_per_run = 12.5;
      mops_per_sec = 80.0;
      minor_words_per_run = 0.0;
    }
  in
  let q =
    { Bench_json.q_count = 3; q_sum_ns = 6.0; q_p50 = 1.0; q_p90 = 2.0; q_p99 = 3.0; q_p999 = 3.0 }
  in
  let report =
    {
      Bench_json.schema = Bench_json.schema_id;
      git_rev = "deadbeef";
      domains = 4;
      quick = true;
      words_per_push = 3.0;
      entries = [ entry ];
      counters = [ ("streaming_dp.push", 1000); ("pool.tasks", 17) ];
      quantiles = [ ("streaming_dp.push", q) ];
    }
  in
  let s1 = Bench_json.report_to_string report in
  (match Bench_json.report_of_string s1 with
  | Error e -> Alcotest.failf "round-trip parse failed: %s" e
  | Ok r2 ->
      Alcotest.(check string) "write -> read -> write is byte-identical" s1
        (Bench_json.report_to_string r2);
      Alcotest.(check (list (pair string int))) "counters survive" report.Bench_json.counters
        r2.Bench_json.counters;
      Alcotest.(check int) "quantile count survives" 3
        (match r2.Bench_json.quantiles with [ (_, q2) ] -> q2.Bench_json.q_count | _ -> -1));
  (* both optional fields are omitted when empty and default on read,
     so pre-PR-4/5 baselines keep parsing *)
  let bare = { report with Bench_json.counters = []; quantiles = [] } in
  let s2 = Bench_json.report_to_string bare in
  Alcotest.(check bool) "empty counters field omitted" false (contains "counters" s2);
  Alcotest.(check bool) "empty quantiles field omitted" false (contains "quantiles" s2);
  match Bench_json.report_of_string s2 with
  | Error e -> Alcotest.failf "bare report parse failed: %s" e
  | Ok r3 ->
      Alcotest.(check (list (pair string int))) "counters default to []" [] r3.Bench_json.counters;
      Alcotest.(check int) "quantiles default to []" 0 (List.length r3.Bench_json.quantiles)

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
    case "obs: bench JSON round-trips counters and quantiles" bench_json_roundtrip;
    case "obs: a Noop probe allocates nothing" noop_probe_allocates_nothing;
    case "obs: a resolved labeled-child bump allocates nothing" labeled_bump_allocates_nothing;
    case "obs: a recorded span stays within 16 words" recorded_span_budget;
  ]
