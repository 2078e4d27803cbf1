(* Streaming online-vs-offline auditor: Online_sc.Incremental replays
   [run] field-for-field and exposes exact prefix costs; Audit window
   and witness semantics; the Auditor pipeline keeps Theorem 3's bound
   on random and adversarial instances while synthetic cost inflation
   provokes witnessed violations; audit readbacks are byte-identical
   at pool widths 1 and 4 under the tick clock; and a spawned
   serve-metrics process exports valid audit.* families. *)

open Dcache_core
module Obs = Dcache_obs.Obs
module Clock = Dcache_obs.Clock
module Histo = Dcache_obs.Histo_log
module Prom = Dcache_obs.Prometheus
module Audit = Dcache_obs.Audit
module Auditor = Dcache_sim.Auditor
module Adversary = Dcache_workload.Adversary
module Pool = Dcache_prelude.Pool
open Helpers

let fig6_model = Dcache_experiments.Instances.fig6_model
let fig6_seq = fig6 ()

(* see test_pool.ml: module-level pools are torn down with the process *)
let pool1 = Pool.create ~domains:1 ()
let pool4 = Pool.create ~domains:4 ()

let contains needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* Virtual tick clock; always restore the Noop sink and zeroed
   metrics for the other suites (same idiom as test_obs.ml). *)
let with_recording ?capacity f =
  let r = Obs.recorder ~clock:(Clock.ticks ()) ?capacity () in
  Obs.set_sink (Obs.Recording r);
  Fun.protect
    ~finally:(fun () ->
      Obs.set_sink Obs.Noop;
      Obs.reset ())
    (fun () -> f r)

let feed_all inc seq =
  for i = 1 to Sequence.n seq do
    Online_sc.Incremental.feed inc ~server:(Sequence.server seq i) ~time:(Sequence.time seq i)
  done

(* ------------------------------------------------- Incremental API *)

let incremental_replays_run =
  qcheck "incremental feed/finish replays run field-for-field" (nonempty_problem_arbitrary ())
    (fun p ->
      List.for_all
        (fun epoch_size ->
          let via_run = Online_sc.run ?epoch_size ~record_events:true p.model p.seq in
          let inc =
            Online_sc.Incremental.create ?epoch_size ~record_events:true p.model
              ~m:(Sequence.m p.seq)
          in
          feed_all inc p.seq;
          let via_inc = Online_sc.Incremental.finish inc ~horizon:(Sequence.horizon p.seq) in
          via_run = via_inc)
        [ None; Some 3 ])

let cost_so_far_matches_prefix_totals =
  qcheck ~count:100 "cost_so_far equals the prefix run's total cost"
    (nonempty_problem_arbitrary ~max_n:12 ())
    (fun p ->
      let inc = Online_sc.Incremental.create p.model ~m:(Sequence.m p.seq) in
      let ok = ref true in
      for i = 1 to Sequence.n p.seq do
        Online_sc.Incremental.feed inc ~server:(Sequence.server p.seq i)
          ~time:(Sequence.time p.seq i);
        let prefix = (Online_sc.run p.model (Sequence.sub p.seq i)).Online_sc.total_cost in
        let stream = Online_sc.Incremental.cost_so_far inc in
        if not (Float.abs (stream -. prefix) <= 1e-6 *. Float.max 1.0 prefix) then ok := false;
        if Online_sc.Incremental.n inc <> i then ok := false
      done;
      !ok && Online_sc.Incremental.transfers_so_far inc >= 0)

let incremental_validates_input () =
  let inc = Online_sc.Incremental.create Dcache_experiments.Instances.fig2_model ~m:2 in
  Online_sc.Incremental.feed inc ~server:1 ~time:1.0;
  Alcotest.check_raises "out-of-range server"
    (Invalid_argument "Online_sc.Incremental.feed: server out of range") (fun () ->
      Online_sc.Incremental.feed inc ~server:5 ~time:2.0);
  Alcotest.check_raises "non-increasing time"
    (Invalid_argument "Online_sc.Incremental.feed: times must be strictly increasing") (fun () ->
      Online_sc.Incremental.feed inc ~server:0 ~time:1.0);
  ignore (Online_sc.Incremental.finish inc);
  Alcotest.check_raises "feed after finish"
    (Invalid_argument "Online_sc.Incremental.feed: state already finished") (fun () ->
      Online_sc.Incremental.feed inc ~server:0 ~time:2.0)

(* ------------------------------------------------- Audit semantics *)

let ratio_zero_opt_defaults_to_one () =
  check_float "0/0 reads 1.0" 1.0 (Audit.ratio ~online:0.0 ~opt:0.0);
  (* the serve-metrics stale-gauge fix rides on this: an all-free
     batch must publish 1.0, not the previous batch's ratio *)
  check_float "positive online over zero opt still reads 1.0" 1.0
    (Audit.ratio ~online:5.0 ~opt:0.0);
  check_float "plain division otherwise" 1.5 (Audit.ratio ~online:3.0 ~opt:2.0)

(* [observe] rides the per-request serving path: under the Noop sink
   it allocates only the floats boxed at the call boundary (about 4
   words), within a budget of 16.  The costs keep a ratio of 2.0, inside
   the bound, so the witness path (which may allocate) never runs. *)
let observe_word_budget () =
  Obs.set_sink Obs.Noop;
  let iters = 200_000 in
  let opts = Array.init iters (fun i -> 0.5 *. float_of_int (i + 1)) in
  let words =
    words_per_request ~n:iters (fun () ->
        let a = Audit.create ~window_size:64 () in
        for i = 0 to iters - 1 do
          let opt = opts.(i) in
          ignore (Audit.observe a ~online:(2.0 *. opt) ~opt)
        done)
  in
  if words > 16.0 then
    Alcotest.failf "a Noop-sink Audit.observe allocates %.3f words (budget 16)" words

let window_accounting () =
  let a = Audit.create ~window_size:2 () in
  check_float "bound readback" 3.0 (Audit.bound a);
  check_float "prefix ratio before any observation" 1.0 (Audit.prefix_ratio a);
  let closes =
    List.map
      (fun (online, opt) -> Audit.observe a ~online ~opt)
      [ (2.0, 1.0); (4.0, 2.0); (6.0, 3.0); (8.0, 4.0); (9.0, 5.0) ]
  in
  Alcotest.(check (list bool)) "every second observation closes a window"
    [ false; true; false; true; false ] closes;
  Alcotest.(check int) "observations counted" 5 (Audit.n a);
  Alcotest.(check int) "two full windows closed" 2 (Audit.windows_closed a);
  (match Audit.last_window a with
  | None -> Alcotest.fail "expected a closed window"
  | Some w ->
      Alcotest.(check int) "window ordinal" 1 w.Audit.index;
      Alcotest.(check int) "window first request" 3 w.Audit.first;
      Alcotest.(check int) "window last request" 4 w.Audit.last;
      check_float "window online delta" 4.0 w.Audit.online;
      check_float "window opt delta" 2.0 w.Audit.opt;
      check_float "window ratio" 2.0 w.Audit.ratio;
      check_float "window regret" 2.0 w.Audit.regret;
      check_float "prefix ratio at close" 2.0 w.Audit.prefix_ratio);
  check_float "prefix online readback" 9.0 (Audit.prefix_online a);
  check_float "prefix opt readback" 5.0 (Audit.prefix_opt a);
  check_float "prefix ratio readback" 1.8 (Audit.prefix_ratio a);
  Alcotest.(check int) "no violations below the bound" 0 (Audit.violations a);
  Alcotest.(check bool) "flush closes the pending partial window" true (Audit.flush a);
  Alcotest.(check int) "final partial window counted" 3 (Audit.windows_closed a);
  (match Audit.last_window a with
  | None -> Alcotest.fail "expected the flushed window"
  | Some w ->
      Alcotest.(check int) "flushed window covers the tail" 5 w.Audit.first;
      Alcotest.(check int) "flushed window last" 5 w.Audit.last;
      check_float "flushed window online" 1.0 w.Audit.online;
      check_float "flushed window regret" 0.0 w.Audit.regret);
  Alcotest.check_raises "observe after flush raises"
    (Invalid_argument "Audit.observe: auditor already flushed") (fun () ->
      ignore (Audit.observe a ~online:10.0 ~opt:6.0));
  Alcotest.check_raises "double flush raises"
    (Invalid_argument "Audit.flush: auditor already flushed") (fun () -> ignore (Audit.flush a))

let violation_witness_ring () =
  let a = Audit.create ~window_size:8 ~witness_capacity:2 () in
  for i = 1 to 5 do
    let fi = float_of_int i in
    ignore (Audit.observe a ~online:(10.0 *. fi) ~opt:fi)
  done;
  Alcotest.(check int) "every prefix above the bound fires" 5 (Audit.violations a);
  let ws = Audit.witnesses a in
  Alcotest.(check (list int)) "ring keeps the most recent witnesses, oldest first" [ 4; 5 ]
    (List.map (fun w -> w.Audit.at) ws);
  List.iter
    (fun w ->
      check_float "witness ratio" 10.0 w.Audit.w_ratio;
      check_float "witness online" (10.0 *. w.Audit.w_opt) w.Audit.w_online)
    ws

(* ------------------------------------------------ Auditor pipeline *)

let no_violations_on_random =
  qcheck ~count:150 "Theorem 3 holds on every prefix of random instances"
    (nonempty_problem_arbitrary ())
    (fun p ->
      let report = Auditor.replay ~window_size:4 p.model p.seq in
      report.Auditor.violations = 0
      && report.Auditor.witnesses = []
      && report.Auditor.requests = Sequence.n p.seq
      && report.Auditor.windows >= 1
      && report.Auditor.final_ratio <= 3.0 +. 1e-6
      && approx report.Auditor.online_cost report.Auditor.run.Online_sc.total_cost)

let adversaries_stay_within_bound () =
  List.iter
    (fun (name, seq) ->
      let report = Auditor.replay fig6_model seq in
      Alcotest.(check int) (name ^ ": zero violations") 0 report.Auditor.violations;
      Alcotest.(check int)
        (name ^ ": windows cover the trace")
        ((Sequence.n seq + 63) / 64)
        report.Auditor.windows;
      check_le (name ^ ": final ratio within Theorem 3") report.Auditor.final_ratio
        (3.0 +. 1e-6))
    (Adversary.all fig6_model ~m:4 ~n:120)

let inflation_provokes_witness () =
  let seq = List.assoc "ping-pong-far" (Adversary.all fig6_model ~m:4 ~n:96) in
  let fired = ref 0 in
  let report =
    Auditor.replay ~window_size:16 ~inflate:4.0 ~on_window:(fun _w -> incr fired) fig6_model seq
  in
  Alcotest.(check bool) "synthetic inflation fires the bound monitor" true
    (report.Auditor.violations > 0);
  Alcotest.(check bool) "witness prefixes retained" true (report.Auditor.witnesses <> []);
  List.iter
    (fun w ->
      check_le "witness ratio exceeds the bound" (3.0 +. 1e-6) w.Audit.w_ratio;
      Alcotest.(check bool) "witness prefix index in range" true
        (w.Audit.at >= 1 && w.Audit.at <= Sequence.n seq))
    report.Auditor.witnesses;
  Alcotest.(check int) "on_window fired once per window" report.Auditor.windows !fired;
  (* the policy itself is untouched: the uninflated replay is clean *)
  let clean = Auditor.replay ~window_size:16 fig6_model seq in
  Alcotest.(check int) "uninflated replay stays clean" 0 clean.Auditor.violations

let pipeline_midstream_readbacks () =
  let seq = fig6_seq in
  let t = Auditor.create fig6_model ~m:(Sequence.m seq) in
  for i = 1 to Sequence.n seq do
    Auditor.feed t ~server:(Sequence.server seq i) ~time:(Sequence.time seq i);
    let a = Auditor.audit t in
    Alcotest.(check int) "auditor saw every request" i (Audit.n a);
    check_float "prefix online mirrors the pipeline readback" (Auditor.online_cost_so_far t)
      (Audit.prefix_online a);
    check_float "prefix opt mirrors the pipeline readback" (Auditor.opt_cost_so_far t)
      (Audit.prefix_opt a);
    check_le "online dominates opt on every prefix" (Auditor.opt_cost_so_far t)
      (Auditor.online_cost_so_far t)
  done;
  let report = Auditor.finish t in
  Alcotest.(check int) "report covers the whole trace" (Sequence.n seq) report.Auditor.requests;
  check_float "final ratio recomputes from the totals"
    (Audit.ratio ~online:report.Auditor.online_cost ~opt:report.Auditor.opt_cost)
    report.Auditor.final_ratio;
  Alcotest.check_raises "finish is consuming"
    (Invalid_argument "Audit.flush: auditor already flushed") (fun () -> ignore (Auditor.finish t))

(* ------------------------------------------------ metric plumbing *)

let audit_metrics_recorded () =
  with_recording @@ fun _r ->
  let report = Auditor.replay ~window_size:4 fig6_model fig6_seq in
  let counter name = Obs.counter_value (Obs.counter name) in
  Alcotest.(check int) "audit.requests counts observations" (Sequence.n fig6_seq)
    (counter "audit.requests");
  Alcotest.(check int) "audit.windows counts closed windows" report.Auditor.windows
    (counter "audit.windows");
  Alcotest.(check int) "audit.bound_violations stays zero" 0 (counter "audit.bound_violations");
  check_float "audit.prefix_ratio gauge holds the final ratio" report.Auditor.final_ratio
    (Obs.gauge_value (Obs.gauge "audit.prefix_ratio"));
  let span_count name =
    match List.assoc_opt name (Obs.span_durations ()) with Some h -> Histo.count h | None -> -1
  in
  Alcotest.(check int) "window-ratio quantile histogram fed per window" report.Auditor.windows
    (span_count "audit.window_ratios");
  Alcotest.(check int) "window-regret quantile histogram fed per window" report.Auditor.windows
    (span_count "audit.window_regret")

(* Counters and span-duration histograms (window ratios and regret
   included) are commutative atomic adds, so the audit readbacks
   must not depend on the pool width.  Gauges are last-write and
   therefore excluded (serve-metrics finalises them after the join —
   see docs/OBSERVABILITY.md). *)
let audit_readback_string () =
  let b = Buffer.create 512 in
  let is_audit name = String.length name >= 6 && String.sub name 0 6 = "audit." in
  List.iter
    (fun (name, v) -> if is_audit name then Buffer.add_string b (Printf.sprintf "%s=%d\n" name v))
    (Obs.counter_totals ());
  List.iter
    (fun (name, h) ->
      if is_audit name then
        Buffer.add_string b
          (Printf.sprintf "%s count=%d sum=%d q50=%g q99=%g\n" name (Histo.count h) (Histo.sum h)
             (Histo.quantile h 0.5) (Histo.quantile h 0.99)))
    (Obs.span_durations ());
  Buffer.contents b

let width_independent_readbacks () =
  let instances = Array.of_list (Adversary.all fig6_model ~m:4 ~n:96) in
  let run_at pool =
    let r = Obs.recorder ~clock:(Clock.ticks ()) () in
    Obs.set_sink (Obs.Recording r);
    Fun.protect
      ~finally:(fun () ->
        Obs.set_sink Obs.Noop;
        Obs.reset ())
      (fun () ->
        ignore
          (Pool.parallel_init pool (Array.length instances) (fun i ->
               let _, seq = instances.(i) in
               (Auditor.replay ~window_size:8 fig6_model seq).Auditor.violations));
        audit_readback_string ())
  in
  let w1 = run_at pool1 in
  let w4 = run_at pool4 in
  Alcotest.(check bool) "width-1 readback is non-empty" true (String.length w1 > 0);
  Alcotest.(check string) "audit readbacks byte-identical at widths 1 and 4" w1 w4

(* -------------------------------------------- serve-metrics smoke *)

let http_get_metrics port =
  let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, port) in
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect sock addr;
      let req = "GET /metrics HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n" in
      ignore (Unix.write_substring sock req 0 (String.length req));
      let buf = Buffer.create 8192 in
      let chunk = Bytes.create 4096 in
      let rec drain () =
        let k = Unix.read sock chunk 0 (Bytes.length chunk) in
        if k > 0 then begin
          Buffer.add_subbytes buf chunk 0 k;
          drain ()
        end
      in
      drain ();
      Buffer.contents buf)

let rec wait_ready port attempts =
  match http_get_metrics port with
  | response -> response
  | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ECONNRESET), _, _)
    when attempts > 0 ->
      Unix.sleepf 0.1;
      wait_ready port (attempts - 1)

let serve_metrics_exports_audit_families () =
  let exe = Filename.concat (Filename.concat ".." "bin") "dcache.exe" in
  if not (Sys.file_exists exe) then Alcotest.skip ();
  let out_read, out_write = Unix.pipe ~cloexec:false () in
  let pid =
    Unix.create_process exe
      [|
        exe; "serve-metrics"; "--metrics-port"; "0"; "--batches"; "0"; "--batch-size"; "64";
        "-m"; "4";
      |]
      Unix.stdin out_write Unix.stderr
  in
  Unix.close out_write;
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid);
      try Unix.close out_read with Unix.Unix_error _ -> ())
    (fun () ->
      let line = input_line (Unix.in_channel_of_descr out_read) in
      let port =
        match String.rindex_opt line ':' with
        | Some i ->
            let rest = String.sub line (i + 1) (String.length line - i - 1) in
            int_of_string (String.trim (Filename.chop_suffix rest "/metrics"))
        | None -> Alcotest.fail ("unexpected serve-metrics banner: " ^ line)
      in
      let response = wait_ready port 50 in
      let body =
        let rec split i =
          if i + 4 > String.length response then Alcotest.fail "no HTTP header terminator"
          else if String.sub response i 4 = "\r\n\r\n" then
            String.sub response (i + 4) (String.length response - i - 4)
          else split (i + 1)
        in
        split 0
      in
      (match Prom.validate body with
      | Ok samples -> Alcotest.(check bool) "exposition has samples" true (samples > 0)
      | Error e -> Alcotest.fail ("invalid exposition: " ^ e));
      List.iter
        (fun family ->
          Alcotest.(check bool) (family ^ " exported") true (contains family body))
        [
          "dcache_audit_requests_total";
          "dcache_audit_windows_total";
          "dcache_audit_bound_violations_total";
          "dcache_audit_prefix_ratio";
          "dcache_serve_sc_vs_opt";
        ])

(* A non-finite time is refused by Online_sc before any state moves,
   so the auditor's three parts stay in step and the next request is
   served as if the bad one never came. *)
let auditor_rejects_non_finite_time () =
  let auditor = Auditor.create Cost_model.unit ~m:3 in
  Auditor.feed auditor ~server:1 ~time:1.0;
  Auditor.feed auditor ~server:2 ~time:1.5;
  let n = Audit.n (Auditor.audit auditor) in
  let online = Auditor.online_cost_so_far auditor and opt = Auditor.opt_cost_so_far auditor in
  List.iter
    (fun time ->
      Alcotest.check_raises "rejected"
        (Invalid_argument "Online_sc.Incremental.feed: time must be finite") (fun () ->
          Auditor.feed auditor ~server:0 ~time);
      Alcotest.(check int) "Audit.n unchanged" n (Audit.n (Auditor.audit auditor));
      Alcotest.(check (float 0.0)) "online cost unchanged" online
        (Auditor.online_cost_so_far auditor);
      Alcotest.(check (float 0.0)) "optimal cost unchanged" opt (Auditor.opt_cost_so_far auditor))
    [ infinity; neg_infinity; nan ];
  Auditor.feed auditor ~server:0 ~time:2.0;
  Alcotest.(check int) "the next feed counts" (n + 1) (Audit.n (Auditor.audit auditor));
  let report = Auditor.finish auditor in
  Alcotest.(check bool) "costs stay finite" true
    (Float.is_finite report.online_cost && Float.is_finite report.opt_cost);
  Alcotest.(check int) "no violations" 0 report.violations

(* Rates that overflow every cost to inf: [solve], [online] and [audit]
   exit 1 with a message instead of printing inf and nan ratios. *)
let cli_rejects_overflowing_costs () =
  let exe = Filename.concat (Filename.concat ".." "bin") "dcache.exe" in
  if not (Sys.file_exists exe) then Alcotest.skip ();
  let err = Filename.temp_file "dcache" ".err" in
  Fun.protect
    ~finally:(fun () -> Sys.remove err)
    (fun () ->
      List.iter
        (fun command ->
          let status =
            Sys.command
              (Filename.quote_command exe ~stdout:Filename.null ~stderr:err
                 [ command; "--trace"; "data/15041.events"; "-m"; "8"; "--mu"; "1e308" ])
          in
          Alcotest.(check int) (command ^ " exit status") 1 status;
          let message = In_channel.with_open_text err In_channel.input_all in
          if not (contains "overflows floating point" message) then
            Alcotest.failf "%s: unexpected error output %S" command message)
        [ "solve"; "online"; "audit" ])

let suite =
  [
    incremental_replays_run;
    cost_so_far_matches_prefix_totals;
    case "incremental: input validation" incremental_validates_input;
    case "audit: zero-opt ratio reads 1.0" ratio_zero_opt_defaults_to_one;
    case "audit: window accounting and flush" window_accounting;
    case "audit: witness ring keeps the newest violations" violation_witness_ring;
    no_violations_on_random;
    case "auditor: adversarial traces stay within Theorem 3" adversaries_stay_within_bound;
    case "auditor: 4x inflation provokes witnessed violations" inflation_provokes_witness;
    case "auditor: mid-stream readbacks agree" pipeline_midstream_readbacks;
    case "audit: metric families record the replay" audit_metrics_recorded;
    case "audit: readbacks identical at widths 1 and 4" width_independent_readbacks;
    case "serve-metrics: exports audit families" serve_metrics_exports_audit_families;
    case "auditor: a non-finite time is rejected whole" auditor_rejects_non_finite_time;
    case "cli: overflowing costs exit 1" cli_rejects_overflowing_costs;
    case "audit: observe stays within 16 words" observe_word_budget;
  ]
