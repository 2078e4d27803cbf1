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
let unit_model = Cost_model.unit
let fig6_seq = fig6 ()

(* see test_pool.ml: module-level pools are torn down with the process *)
let pool1 = Pool.create ~domains:1 ()
let pool4 = Pool.create ~domains:4 ()

(* a whole instance through [Auditor.create], [feed] and [finish] *)
let replay ?window_size ?inflate ?on_window model seq =
  let t = Auditor.create ?window_size ?inflate ?on_window model ~m:(Sequence.m seq) in
  for i = 1 to Sequence.n seq do
    Auditor.feed t ~server:(Sequence.server seq i) ~time:(Sequence.time seq i)
  done;
  Auditor.finish t

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

(* The incremental state keeps no serve log: its run's [serves] is
   empty, its [Served] events carry [run]'s serves in order, and every
   other field is [run]'s *)
let replays_run p =
  List.for_all
    (fun epoch_size ->
      let via_run = Online_sc.run ?epoch_size ~record_events:true p.model p.seq in
      let inc =
        Online_sc.Incremental.create ?epoch_size ~record_events:true p.model ~m:(Sequence.m p.seq)
      in
      feed_all inc p.seq;
      let via_inc = Online_sc.Incremental.finish inc ~horizon:(Sequence.horizon p.seq) in
      let served =
        List.filter_map
          (function Online_sc.Served { kind; _ } -> Some kind | _ -> None)
          via_inc.Online_sc.events
      in
      via_inc.Online_sc.serves = [||]
      && served = List.tl (Array.to_list via_run.Online_sc.serves)
      && { via_inc with serves = via_run.serves } = via_run)
    [ None; Some 3 ]

let incremental_replays_run =
  qcheck "incremental feed/finish replays run field-for-field" (nonempty_problem_arbitrary ())
    replays_run

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
   it allocates only the two floats this loop boxes to pass (4.00
   words), within a budget of 5.  The costs keep a ratio of 2.0,
   inside the bound, so the witness path (which may allocate) never
   runs. *)
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
  if words > 5.0 then
    Alcotest.failf "a Noop-sink Audit.observe allocates %.3f words (budget 5)" words

let window_accounting () =
  let a = Audit.create ~window_size:2 () in
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
      let report = replay ~window_size:4 p.model p.seq in
      report.Auditor.violations = 0
      && report.Auditor.witnesses = []
      && report.Auditor.requests = Sequence.n p.seq
      && report.Auditor.windows >= 1
      && report.Auditor.final_ratio <= 3.0 +. 1e-6
      && approx report.Auditor.online_cost (Online_sc.run p.model p.seq).Online_sc.total_cost)

let adversaries_stay_within_bound () =
  List.iter
    (fun (name, seq) ->
      let report = replay fig6_model seq in
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
    replay ~window_size:16 ~inflate:4.0 ~on_window:(fun _w -> incr fired) fig6_model seq
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
  let clean = replay ~window_size:16 fig6_model seq in
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
  let report = replay ~window_size:4 fig6_model fig6_seq in
  let counter name = Obs.counter_value (Obs.counter name) in
  Alcotest.(check int) "audit.requests counts observations" (Sequence.n fig6_seq)
    (counter "audit.requests");
  Alcotest.(check int) "audit.windows counts closed windows" report.Auditor.windows
    (counter "audit.windows");
  Alcotest.(check int) "audit.bound_violations stays zero" 0 (counter "audit.bound_violations");
  check_float "audit.prefix_ratio gauge holds the final ratio" report.Auditor.final_ratio
    (gauge_value (Obs.gauge "audit.prefix_ratio"));
  let span_count name =
    match List.assoc_opt name (span_durations ()) with Some h -> Histo.count h | None -> -1
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
    (counter_totals ());
  List.iter
    (fun (name, h) ->
      if is_audit name then
        Buffer.add_string b
          (let q = Histo.quantiles h [| 0.5; 0.99 |] in
           Printf.sprintf "%s count=%d sum=%d q50=%g q99=%g\n" name (Histo.count h) (Histo.sum h)
             q.(0) q.(1)))
    (span_durations ());
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
               (replay ~window_size:8 fig6_model seq).Auditor.violations));
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

(* [f ~port ~stop_cleanly] while [dcache serve-metrics ARGS] serves on
   [port].  [stop_cleanly ()] sends SIGTERM, which ends the server
   after its current batch through the normal exit: it checks status 0
   and that the runtime removed the [<pid>.events] ring file.  SIGKILL
   ends the server only after a failure. *)
let with_serve_metrics args f =
  let exe = Filename.concat (Filename.concat ".." "bin") "dcache.exe" in
  if not (Sys.file_exists exe) then Alcotest.skip ();
  let out_read, out_write = Unix.pipe ~cloexec:false () in
  let pid =
    Unix.create_process exe
      (Array.of_list (exe :: "serve-metrics" :: "--metrics-port" :: "0" :: "--batches" :: "0" :: args))
      Unix.stdin out_write Unix.stderr
  in
  Unix.close out_write;
  let reaped = ref false in
  Fun.protect
    ~finally:(fun () ->
      if not !reaped then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid)
      end;
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
      let stop_cleanly () =
        Unix.kill pid Sys.sigterm;
        let _, status = Unix.waitpid [] pid in
        reaped := true;
        Alcotest.(check bool) "SIGTERM exits 0" true (status = Unix.WEXITED 0);
        Alcotest.(check bool) "no ring file left" false
          (Sys.file_exists (Printf.sprintf "%d.events" pid))
      in
      f ~port ~stop_cleanly)

let serve_metrics_exports_audit_families () =
  with_serve_metrics [ "--batch-size"; "64"; "-m"; "4" ] @@ fun ~port ~stop_cleanly ->
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
  Alcotest.(check bool) "served as the 0.0.4 text format" true
    (contains "\r\nContent-Type: text/plain; version=0.0.4\r\n" response);
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
    ];
  stop_cleanly ()

(* Stopped by SIGTERM, serve-metrics still writes its --trace-json
   trace on the way out *)
let serve_metrics_sigterm_writes_trace () =
  let trace = Filename.temp_file "dcache_serve" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove trace) @@ fun () ->
  with_serve_metrics [ "--batch-size"; "64"; "-m"; "4"; "--trace-json"; trace ]
    (fun ~port ~stop_cleanly ->
      ignore (wait_ready port 50);
      stop_cleanly ());
  let module Bench_json = Dcache_bench_common.Bench_json in
  match Bench_json.of_string (In_channel.with_open_bin trace In_channel.input_all) with
  | Ok v ->
      Alcotest.(check bool) "the trace has events" true
        (Bench_json.to_list (Bench_json.member "traceEvents" v) <> None)
  | Error e -> Alcotest.failf "the trace does not parse: %s" e

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
   exit 1 with a message instead of printing inf and nan ratios, and
   the gauges they record on the way hold no null (overflowed) sample.
   A window lambda / mu that underflows to 0 is refused up front by
   [online], [audit] and [compare] alike. *)
let cli_rejects_overflowing_costs () =
  let exe = Filename.concat (Filename.concat ".." "bin") "dcache.exe" in
  if not (Sys.file_exists exe) then Alcotest.skip ();
  let out = Filename.temp_file "dcache" ".out" and err = Filename.temp_file "dcache" ".err" in
  let json = Filename.temp_file "dcache" ".json" in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ out; err; json ])
    (fun () ->
      let run command rates =
        let status =
          Sys.command
            (Filename.quote_command exe ~stdout:out ~stderr:err
               ([ command; "--trace"; "data/15041.events"; "-m"; "8"; "--trace-json"; json ]
               @ rates))
        in
        Alcotest.(check int) (command ^ " exit status") 1 status;
        In_channel.with_open_text err In_channel.input_all
      in
      List.iter
        (fun command ->
          let message = run command [ "--mu"; "1e308" ] in
          if not (contains "overflows floating point" message) then
            Alcotest.failf "%s: unexpected error output %S" command message;
          let trace = In_channel.with_open_text json In_channel.input_all in
          if contains "null" trace then
            Alcotest.failf "%s recorded a null sample: %s" command trace)
        [ "solve"; "online"; "audit" ];
      List.iter
        (fun command ->
          let message = run command [ "--mu"; "1e200"; "--lambda"; "1e-200" ] in
          let printed = In_channel.with_open_text out In_channel.input_all ^ message in
          if
            (not (contains "underflows to 0" message))
            || contains "nan" (String.lowercase_ascii printed)
            || contains "exception" printed
          then Alcotest.failf "%s on an underflowing window printed %S" command printed)
        [ "online"; "audit"; "compare" ])

(* A header-only trace has n = 0 and an optimum of 0: [online] and
   [compare] print a ratio of 1.0000, as [audit] does, and never nan. *)
let cli_empty_trace_prints_no_nan () =
  let exe = Filename.concat (Filename.concat ".." "bin") "dcache.exe" in
  if not (Sys.file_exists exe) then Alcotest.skip ();
  let out = Filename.temp_file "dcache" ".out" in
  Fun.protect
    ~finally:(fun () -> Sys.remove out)
    (fun () ->
      List.iter
        (fun command ->
          let status =
            Sys.command
              (Filename.quote_command exe ~stdout:out ~stderr:out
                 [ command; "--trace"; "data/header-only.csv"; "-m"; "4" ])
          in
          let text = In_channel.with_open_text out In_channel.input_all in
          Alcotest.(check int) (command ^ " exit status") 0 status;
          if contains "nan" (String.lowercase_ascii text) || not (contains "1.0000" text) then
            Alcotest.failf "%s on an empty trace printed:\n%s" command text)
        [ "online"; "compare" ])

(* An overflowed cost stops serve-metrics before any serve.* gauge is
   written, so the Chrome trace never records it as null *)
let serve_metrics_rejects_overflowing_costs () =
  let exe = Filename.concat (Filename.concat ".." "bin") "dcache.exe" in
  if not (Sys.file_exists exe) then Alcotest.skip ();
  let err = Filename.temp_file "dcache" ".err" and json = Filename.temp_file "dcache" ".json" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove err;
      Sys.remove json)
    (fun () ->
      let status =
        Sys.command
          (Filename.quote_command exe ~stdout:Filename.null ~stderr:err
             [
               "serve-metrics"; "--metrics-port"; "0"; "--batches"; "1"; "--mu"; "1e308";
               "--trace-json"; json;
             ])
      in
      Alcotest.(check int) "exit status" 1 status;
      let message = In_channel.with_open_text err In_channel.input_all in
      if not (contains "batch 0, item0: the online cost is inf" message
              && contains "overflows floating point" message)
      then Alcotest.failf "unexpected error output %S" message;
      let trace = In_channel.with_open_text json In_channel.input_all in
      if contains "\"serve." trace then Alcotest.failf "a serve.* gauge was written: %s" trace;
      if contains "null" trace then Alcotest.failf "a null sample was recorded: %s" trace)

(* The audit path in the bench ledger's order (dcache audit on a
   trace file): read, then replay through the auditor, a window line
   per 64 requests into a buffer.  12.08-12.13 words under the Noop
   sink, the window lines included (the stream appends its blocks
   instead of copying them, and SC keeps no serve log); the budget of
   12.75 fails on one more 2-word allocation per request in the read,
   Incremental.feed, Streaming_dp.push or Audit.observe, on C back in
   the stream's rows, and on a serve log. *)
let audit_path_budget () =
  Obs.set_sink Obs.Noop;
  List.iter
    (fun (name, seq) ->
      let out = Buffer.create 4096 in
      let on_window (w : Audit.window) =
        Printf.bprintf out "%8d %8d %12.4f %12.4f %8.4f %10.4f %8.4f\n" w.index w.last w.online
          w.opt w.ratio w.regret w.prefix_ratio
      in
      let words =
        with_temp_file (Dcache_workload.Trace_io.to_string seq) (fun filename ->
            words_per_request ~n:budget_n (fun () ->
                match Dcache_workload.Trace_io.read ~filename ~m:(Sequence.m seq) with
                | Error msg -> Alcotest.fail msg
                | Ok seq -> replay ~window_size:64 ~on_window unit_model seq))
      in
      if words > 12.75 then
        Alcotest.failf "the audit path on %s allocates %.2f words/request (budget 12.75)" name words)
    (budget_workloads ())

(* The serve-metrics item loop in the bench ledger's order, over items
   of 500 requests: generate one, audit it, then re-solve it through a
   Solve_cache miss.  Under the Noop sink it reads 11.92 / 13.78 /
   12.07 / 11.79 words on the four workloads (each item's stream
   appends its blocks instead of copying them as they double, SC keeps
   no serve log, and the re-solve reads the item's times in place), a
   spread past 1 word, so each workload has its own budget, under 1
   word above its figure: a serve log, a copy of the times in the
   re-solve, or C back in the rows of the item's two streams breaks
   it. *)
let serve_items_budget () =
  Obs.set_sink Obs.Noop;
  let budgets =
    [
      ("mobility-ring-m8", 12.75); ("zipf-m64", 14.5); ("bursty-m16", 12.75); ("serve-batch", 12.5);
    ]
  in
  List.iter
    (fun (name, m, arrival, placement) ->
      let spec = { Dcache_workload.Generator.m; n = 500; arrival; placement } in
      Solve_cache.clear ();
      let words =
        words_per_request ~n:budget_n (fun () ->
            for k = 1 to budget_n / 500 do
              let seq = Dcache_workload.Generator.generate_seeded ~seed:k spec in
              let auditor = Auditor.create unit_model ~m ~item:"item0" in
              for j = 1 to Sequence.n seq do
                Auditor.feed auditor ~server:(Sequence.server seq j) ~time:(Sequence.time seq j)
              done;
              ignore (Sys.opaque_identity (Auditor.finish auditor));
              ignore (Sys.opaque_identity (Solve_cache.solve unit_model seq))
            done)
      in
      Solve_cache.clear ();
      let budget = List.assoc name budgets in
      if words > budget then
        Alcotest.failf "the serve item loop on %s allocates %.2f words/request (budget %g)" name
          words budget)
    ledger_workloads

(* Streams past 4 096 requests, where the serve log, now gone, used to
   append its blocks (the name keeps them): the replay holds on long
   runs too *)
let incremental_replays_run_across_blocks =
  qcheck ~count:6 "incremental feed/finish replays run field-for-field across serve-log blocks"
    long_problem_arbitrary replays_run

(* Edge inputs for the online path: an upload priced exactly lambda,
   time gaps of a single ulp, and one server.  The replay stays
   field-for-field and Theorem 3 holds on every prefix. *)
let online_edge_gen =
  let open QCheck.Gen in
  let* m = frequency [ (1, return 1); (2, int_range 2 8) ] and* n = int_range 1 300 in
  let* servers = array_size (return n) (int_range 0 (m - 1)) in
  let* gaps = array_size (return n) ulp_gap_gen in
  let* mu = frequency [ (3, float_range 0.1 4.0); (1, return 1.0) ] in
  let* lambda = frequency [ (3, float_range 0.1 4.0); (1, return 0.5) ] in
  match Sequence.of_columns ~m ~servers ~times:(times_of_gaps gaps) with
  | Ok seq -> return { model = Cost_model.make ~upload:lambda ~mu ~lambda (); seq }
  | Error msg -> failwith msg

let online_edge_inputs =
  qcheck ~count:200 "auditor: upload = lambda, 1-ulp gaps and m = 1 keep Theorem 3"
    (QCheck.make ~print:problem_print online_edge_gen)
    (fun p ->
      let report = replay ~window_size:16 p.model p.seq in
      if report.Auditor.violations <> 0 then
        QCheck.Test.fail_reportf "%d bound violations, final ratio %g" report.Auditor.violations
          report.Auditor.final_ratio;
      replays_run p && report.Auditor.final_ratio <= 3.0 +. 1e-6)

(* On streams past the first block the auditor's optimum is the
   full-scan oracle's *)
let auditor_optimum_is_naive =
  qcheck ~count:6 "auditor: the optimum across row blocks equals Naive_dp's" long_problem_arbitrary
    (fun p ->
      let report = replay p.model p.seq in
      approx report.Auditor.opt_cost (Dcache_baselines.Naive_dp.solve p.model p.seq))

(* Degenerate options exit 1 with the library's message (or, for
   --every, the CLI's own) on stderr, before anything is printed *)
let cli_rejects_degenerate_options () =
  let exe = Filename.concat (Filename.concat ".." "bin") "dcache.exe" in
  if not (Sys.file_exists exe) then Alcotest.skip ();
  let out = Filename.temp_file "dcache" ".out" and err = Filename.temp_file "dcache" ".err" in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ out; err ])
    (fun () ->
      let trace = [ "--trace"; "data/15041.events"; "-m"; "8" ] in
      List.iter
        (fun (args, message) ->
          let status = Sys.command (Filename.quote_command exe ~stdout:out ~stderr:err args) in
          let printed = In_channel.with_open_text out In_channel.input_all in
          let error = In_channel.with_open_text err In_channel.input_all in
          let what = String.concat " " args in
          Alcotest.(check int) (what ^ ": exit status") 1 status;
          Alcotest.(check string) (what ^ ": stdout") "" printed;
          if contains "internal error" error || not (contains message error) then
            Alcotest.failf "%s printed %S on stderr" what error)
        ([
           ("stream" :: trace @ [ "--every"; "0" ], "--every must be at least 1");
           ("online" :: trace @ [ "--epoch-size"; "0" ], "epoch_size must be positive");
           ("generate" :: [ "-m"; "0"; "-n"; "5" ], "m must be positive");
         ]
        @ List.map
            (fun command ->
              ( (command :: trace) @ [ "--mu"; "5e-324"; "--lambda"; "5e-324" ],
                "Cost_model.make: mu is subnormal" ))
            [ "solve"; "online" ]
        @ List.map
            (fun w -> (("online" :: trace) @ [ "--window=" ^ w ], "window must be positive"))
            [ "0"; "-1"; "nan" ]
        @ List.map
            (fun (option, message) -> (("audit" :: trace) @ [ option ], message))
            [
              ("--window-size=0", "window_size must be positive");
              ("--window-size=-5", "window_size must be positive");
              ("--bound=0", "bound must be positive");
              ("--bound=nan", "bound must be positive");
              ("--inflate=0", "inflate must be positive");
              ("--inflate=nan", "inflate must be positive");
              ("--epoch-size=0", "epoch_size must be positive");
            ]))

(* An output that cannot be written fails the run before its work:
   exit 1 with "dcache: PATH: REASON" on stderr, nothing on stdout, and
   no <pid>.events ring file left behind (serve-metrics opens its
   trace before it starts the Runtime_events bridge) *)
let cli_rejects_unwritable_outputs () =
  let exe = Filename.concat (Filename.concat ".." "bin") "dcache.exe" in
  if not (Sys.file_exists exe) then Alcotest.skip ();
  let out = Filename.temp_file "dcache" ".out" and err = Filename.temp_file "dcache" ".err" in
  let missing ext =
    Filename.concat (Filename.concat (Filename.get_temp_dir_name ()) "dcache-no-such-dir") ("x" ^ ext)
  in
  let dir = Filename.get_temp_dir_name () in
  let ring_files () =
    List.length
      (List.filter (fun f -> Filename.check_suffix f ".events") (Array.to_list (Sys.readdir ".")))
  in
  let rings = ring_files () in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ out; err ])
    (fun () ->
      let trace = [ "--trace"; "data/15041.events"; "-m"; "6" ] in
      List.iter
        (fun (env, args, path) ->
          let status =
            Sys.command (env ^ Filename.quote_command exe ~stdout:out ~stderr:err args)
          in
          let printed = In_channel.with_open_text out In_channel.input_all in
          let error = In_channel.with_open_text err In_channel.input_all in
          let what = env ^ String.concat " " args in
          Alcotest.(check int) (what ^ ": exit status") 1 status;
          Alcotest.(check string) (what ^ ": stdout") "" printed;
          if not (String.starts_with ~prefix:("dcache: " ^ path ^ ": ") error) then
            Alcotest.failf "%s printed %S on stderr" what error)
        [
          ("", [ "generate"; "-o"; missing ".csv" ], missing ".csv");
          ("", ("render" :: trace) @ [ "-o"; missing ".svg" ], missing ".svg");
          ("", ("audit" :: trace) @ [ "--metrics-out"; missing ".prom" ], missing ".prom");
          ("", ("solve" :: trace) @ [ "--trace-json"; missing ".json" ], missing ".json");
          ("", ("solve" :: trace) @ [ "--trace-json"; dir ], dir);
          ("DCACHE_TRACE=" ^ Filename.quote (missing ".json") ^ " ", "solve" :: trace, missing ".json");
          ( "",
            [ "serve-metrics"; "--metrics-port"; "0"; "--batches"; "1"; "--trace-json"; missing ".json" ],
            missing ".json" );
          ("", [ "check-metrics"; dir ], dir);
        ];
      Alcotest.(check int) "no ring file left behind" rings (ring_files ()))

(* The auditor hands its costs to Audit through float cells, which
   Online_sc.Incremental and Streaming_dp write.  Beside it, a fresh
   Incremental and Streaming_dp fed the same requests give the same
   bits after every request, and the final report's costs are the
   batch solvers'.  Inflation 2.5 tells the two cells apart; small
   epochs reset SC often. *)
let handoff_options =
  QCheck.make
    ~print:(fun (inflate, epoch_size) ->
      Printf.sprintf "inflate %g, epoch size %s" inflate
        (match epoch_size with None -> "none" | Some k -> string_of_int k))
    QCheck.Gen.(
      pair (oneofl [ 1.0; 2.5 ])
        (frequency [ (2, return None); (1, map Option.some (int_range 1 4)) ]))

let handoffs_keep_every_bit ({ model; seq }, (inflate, epoch_size)) =
  let m = Sequence.m seq in
  let auditor = Auditor.create ?epoch_size ~inflate model ~m in
  let inc = Online_sc.Incremental.create ?epoch_size model ~m in
  let dp = Streaming_dp.create model ~m in
  let bits = Int64.bits_of_float in
  let check what i expected actual =
    if not (Int64.equal (bits expected) (bits actual)) then
      QCheck.Test.fail_reportf "request %d: %s is %h, expected %h" i what actual expected
  in
  for i = 1 to Sequence.n seq do
    let server = Sequence.server seq i and time = Sequence.time seq i in
    Auditor.feed auditor ~server ~time;
    Online_sc.Incremental.feed inc ~server ~time;
    Streaming_dp.push dp ~server ~time;
    let audit = Auditor.audit auditor in
    check "the prefix online cost" i
      (inflate *. Online_sc.Incremental.cost_so_far inc)
      (Audit.prefix_online audit);
    check "the prefix optimum" i (Streaming_dp.cost dp) (Audit.prefix_opt audit)
  done;
  let report = Auditor.finish auditor in
  let n = Sequence.n seq in
  check "the final online cost" n (Online_sc.run ?epoch_size model seq).Online_sc.total_cost
    report.Auditor.online_cost;
  check "the final optimum" n (Offline_dp.cost (Offline_dp.solve model seq)) report.Auditor.opt_cost;
  true

let handoffs_bit_for_bit =
  qcheck ~count:200 "auditor: the cost hand-offs keep every bit"
    (QCheck.pair (nonempty_problem_arbitrary ~with_upload:true ()) handoff_options)
    handoffs_keep_every_bit

let handoffs_bit_for_bit_across_blocks =
  qcheck ~count:4 "auditor: the cost hand-offs keep every bit across blocks"
    (QCheck.pair long_problem_arbitrary handoff_options)
    handoffs_keep_every_bit

(* A loop over Auditor.feed: 2.04 minor words per request, 2 of them
   the loop's own boxed [time].  The costs reach Audit through float
   cells, so one more boxed cost (a return value, a float argument, a
   store into a mutable float field) breaks the budget of 3. *)
let auditor_feed_budget () =
  Obs.set_sink Obs.Noop;
  List.iter
    (fun (name, seq) ->
      let auditor = Auditor.create unit_model ~m:(Sequence.m seq) in
      let before = Gc.minor_words () in
      for i = 1 to Sequence.n seq do
        Auditor.feed auditor ~server:(Sequence.server seq i) ~time:(Sequence.time seq i)
      done;
      let words = (Gc.minor_words () -. before) /. float_of_int budget_n in
      if words > 3.0 then
        Alcotest.failf "a loop over Auditor.feed on %s allocates %.2f minor words/request (budget 3)"
          name words)
    (budget_workloads ())

(* [dcache analyze] on degenerate traces: an empty or header-only one
   exits 1 with its message, and a statistic the trace lacks prints as
   "none", never as nan *)
let cli_analyze_degenerate_traces () =
  let exe = Filename.concat (Filename.concat ".." "bin") "dcache.exe" in
  if not (Sys.file_exists exe) then Alcotest.skip ();
  let trace = Filename.temp_file "dcache" ".csv" in
  let out = Filename.temp_file "dcache" ".out" and err = Filename.temp_file "dcache" ".err" in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ trace; out; err ])
    (fun () ->
      List.iter
        (fun (what, text, status, expected) ->
          Out_channel.with_open_bin trace (fun oc -> output_string oc text);
          let code =
            Sys.command
              (Filename.quote_command exe ~stdout:out ~stderr:err
                 [ "analyze"; "--trace"; trace; "-m"; "3" ])
          in
          let printed = In_channel.with_open_text out In_channel.input_all in
          let message = In_channel.with_open_text err In_channel.input_all in
          Alcotest.(check int) (what ^ ": exit status") status code;
          if contains "nan" (String.lowercase_ascii printed) then
            Alcotest.failf "%s printed nan:\n%s" what printed;
          List.iter
            (fun needle ->
              if not (contains needle (printed ^ message)) then
                Alcotest.failf "%s: no %S in:\n%s%s" what needle printed message)
            expected)
        [
          ("an empty trace", "", 1, [ "dcache: empty trace" ]);
          ("a header-only trace", "server,time\n", 1, [ "dcache: empty trace" ]);
          ( "an all-distinct trace",
            "0,1\n1,2\n2,3\n",
            0,
            [ "cv 0.00"; "revisits        none"; "no revisits to cache" ] );
          ( "a one-request trace",
            "0,1\n",
            0,
            [ "cv none"; "locality        none"; "revisits        none"; "no revisits to cache" ]
          );
        ])

(* Runs that end within a few requests of where the serve log, now
   gone, crossed a block boundary: 16, 32, ..., 4 096 entries, and
   8 192 (the name keeps the log).  The incremental state replays
   [run] as [replays_run] says at every such length. *)
let serve_log_boundary_gen =
  let open QCheck.Gen in
  let* k = int_range 0 9
  and* d = int_range (-2) 2
  and* m = oneofl [ 1; 2; 4; 8 ]
  and* seed = int_bound 1_000_000
  and* mu = float_range 0.1 4.0
  and* lambda = float_range 0.1 4.0 in
  (* request i is at entry i: entry 0 is never written *)
  let n = (16 lsl k) - 1 + d in
  let seq =
    Dcache_workload.Generator.generate_seeded ~seed
      {
        Dcache_workload.Generator.m;
        n;
        arrival = Dcache_workload.Arrival.Poisson { rate = 1.0 };
        placement = Dcache_workload.Placement.Uniform_random;
      }
  in
  return { model = Cost_model.make ~mu ~lambda (); seq }

let serve_log_replays_run_at_every_boundary =
  qcheck ~count:40 "sc: the serve log replays run across its appended blocks"
    (QCheck.make
       ~print:(fun { model; seq } ->
         Format.asprintf "n = %d, m = %d, %a" (Sequence.n seq) (Sequence.m seq) pp_model model)
       serve_log_boundary_gen)
    replays_run

(* The feed loop under the Recording sink [dcache audit] and
   [serve-metrics] install: 2.15 minor words per request, 2 of them the
   loop's boxed [time].  The prefix-ratio gauge reads its value from
   Audit's float cells, so a ratio passed boxed to [Obs.set_gauge]
   (2 words) breaks the budget of 3. *)
let auditor_feed_budget_recording () =
  let r = Obs.recorder () in
  Obs.set_sink (Obs.Recording r);
  Fun.protect
    ~finally:(fun () ->
      Obs.set_sink Obs.Noop;
      Obs.reset ())
    (fun () ->
      List.iter
        (fun (name, seq) ->
          let auditor = Auditor.create unit_model ~m:(Sequence.m seq) in
          let before = Gc.minor_words () in
          for i = 1 to Sequence.n seq do
            Auditor.feed auditor ~server:(Sequence.server seq i) ~time:(Sequence.time seq i)
          done;
          let words = (Gc.minor_words () -. before) /. float_of_int budget_n in
          if words > 3.0 then
            Alcotest.failf
              "a loop over Auditor.feed on %s under a Recording sink allocates %.2f minor \
               words/request (budget 3)"
              name words)
        (budget_workloads ()))

(* [stream], [compare] and [render] check their costs before they print
   or draw them, as [solve], [online] and [audit] do: at --mu 1e308
   each exits 1 with the overflow message, and no inf or nan reaches
   stdout or the SVG *)
let cli_stream_compare_render_refuse_overflow () =
  let exe = Filename.concat (Filename.concat ".." "bin") "dcache.exe" in
  if not (Sys.file_exists exe) then Alcotest.skip ();
  let out = Filename.temp_file "dcache" ".out" and err = Filename.temp_file "dcache" ".err" in
  let svg = Filename.temp_file "dcache" ".svg" in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ out; err; svg ])
    (fun () ->
      List.iter
        (fun args ->
          let status =
            Sys.command
              (Filename.quote_command exe ~stdout:out ~stderr:err
                 (args @ [ "--trace"; "data/15041.events"; "-m"; "8"; "--mu"; "1e308" ]))
          in
          let what = String.concat " " args in
          let read file = In_channel.with_open_text file In_channel.input_all in
          Alcotest.(check int) (what ^ ": exit status") 1 status;
          let message = read err in
          if not (contains "overflows floating point" message) then
            Alcotest.failf "%s printed %S on stderr" what message;
          List.iter
            (fun (where, text) ->
              if contains "inf" text || contains "nan" text then
                Alcotest.failf "%s wrote an overflowed cost to %s:\n%s" what where text)
            [ ("stdout", read out); ("the SVG", read svg) ])
        [
          [ "stream"; "--every"; "100" ];
          [ "compare" ];
          [ "render"; "-o"; svg ];
          [ "render"; "--online"; "-o"; svg ];
        ])

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
    case "serve-metrics: overflowing costs exit 1" serve_metrics_rejects_overflowing_costs;
    case "cli: an empty trace prints no nan ratio" cli_empty_trace_prints_no_nan;
    case "audit: the audit path stays within its budget" audit_path_budget;
    case "serve-metrics: the item loop stays within its budget" serve_items_budget;
    incremental_replays_run_across_blocks;
    online_edge_inputs;
    auditor_optimum_is_naive;
    case "cli: degenerate options exit 1 with a message" cli_rejects_degenerate_options;
    handoffs_bit_for_bit;
    handoffs_bit_for_bit_across_blocks;
    case "auditor: a feed loop stays within 3 minor words per request" auditor_feed_budget;
    case "cli: dcache analyze on degenerate traces prints no nan" cli_analyze_degenerate_traces;
    serve_log_replays_run_at_every_boundary;
    case "auditor: a feed loop under a Recording sink stays within 3 minor words per request"
      auditor_feed_budget_recording;
    case "serve-metrics: SIGTERM writes the trace and leaves no ring file"
      serve_metrics_sigterm_writes_trace;
    case "cli: an unwritable output exits 1 before any result" cli_rejects_unwritable_outputs;
    case "cli: stream, compare and render refuse overflowing costs"
      cli_stream_compare_render_refuse_overflow;
  ]
