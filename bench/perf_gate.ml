(* Performance-regression gate over the DP hot path: time budgets
   only.  Word budgets are tier-1 tests in `dune runtest`.

   Usage: perf_gate [BASELINE.json]             gate (make perf-gate)
          perf_gate --record [BASELINE.json]    record (make bench-baseline)

   BASELINE.json defaults to BENCH_baseline.json, schema
   dcache-perf-gate/1: the git revision, the gated case and its
   ns/op.  Both modes time the `streaming push x1000 m=6` workload
   (Bench_cases.push_workload) with bechamel and take the minimum of
   three runs.  --record writes the lowest of five such figures as the
   baseline, stamped with HEAD ("-dirty" for uncommitted changes).
   The gate exits 1 when:

   - the fresh ns/op exceeds 1.25x the baseline's,
   - a memoised [Solve_cache.solve] hit is less than
     [Bench_cases.min_solve_memo_speedup] times faster than the
     uncached sweep,
   - disabled [Obs] probes cost more than
     [Bench_cases.max_obs_overhead_frac] of a push,
   - a recorded span costs more than [Bench_cases.max_ns_per_span],
   - re-resolving an existing labeled child ([Obs.counter_vec])
     exceeds [Bench_cases.max_labeled_resolve_ns], or
   - the baseline is missing, malformed, or records another case.

   Performance failures replay the gated workload once under a
   recording sink and dump a Chrome trace to
   _build/trace/perf_gate_failure.json for triage
   (docs/PERFORMANCE.md, "Gate-failure triage").  Record a new
   baseline only after an intentional performance change. *)

open Dcache_bench_common
module Obs = Dcache_obs.Obs

let regression_factor = 1.25

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perf-gate: " ^ s);
      exit 1)
    fmt

(* Replay the gated workload under a recording sink and write the
   trace where the gate-failure triage docs point: spans and counters
   of exactly the code under gate, not of the measurement
   scaffolding. *)
let failure_trace_path = Filename.concat (Filename.concat "_build" "trace") "perf_gate_failure.json"

let dump_failure_trace () =
  let r = Obs.recorder () in
  Obs.set_sink (Obs.Recording r);
  Bench_cases.push_workload () ();
  Obs.set_sink Obs.Noop;
  let ensure_dir d = if not (Sys.file_exists d) then Sys.mkdir d 0o755 in
  match
    ensure_dir "_build";
    ensure_dir (Filename.concat "_build" "trace");
    Obs.write_chrome_trace r ~path:failure_trace_path
  with
  | () -> Printf.eprintf "perf-gate: trace of the offending case: %s\n" failure_trace_path
  | exception Sys_error e -> Printf.eprintf "perf-gate: could not write failure trace: %s\n" e

let fail_perf fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perf-gate: " ^ s);
      dump_failure_trace ();
      exit 1)
    fmt

let fresh_push_ns () =
  let ns = Bench_cases.push_ns () in
  if Float.is_finite ns then ns else fail "fresh measurement produced no finite ns/op estimate"

(* Noise only inflates a timing, so the baseline is the minimum of
   [record_rounds] gate figures: one slow round cannot loosen the
   limit. *)
let record_rounds = 5

let record path =
  let ns = ref infinity in
  for round = 1 to record_rounds do
    let fresh = fresh_push_ns () in
    Printf.printf "round %d/%d (min/3): %12.1f ns/op\n%!" round record_rounds fresh;
    ns := Float.min !ns fresh
  done;
  let b =
    {
      Bench_json.git_rev = Bench_cases.git_rev ();
      case = Bench_cases.push_name;
      (* to 0.1 ns, far below the run-to-run noise *)
      ns_per_run = Float.round (!ns *. 10.0) /. 10.0;
    }
  in
  (try
     Out_channel.with_open_text path (fun oc ->
         Out_channel.output_string oc (Bench_json.baseline_to_string b))
   with Sys_error e -> fail "cannot write baseline: %s" e);
  Printf.printf "recorded %s: %s %.1f ns/op (min of %d rounds) at %s\n" path b.case b.ns_per_run
    record_rounds b.git_rev

let gate path =
  let text =
    try In_channel.with_open_text path In_channel.input_all
    with Sys_error e -> fail "cannot read baseline: %s" e
  in
  let base =
    match Bench_json.baseline_of_string text with
    | Ok b -> b
    | Error e -> fail "cannot parse %s: %s" path e
  in
  if not (String.equal base.case Bench_cases.push_name) then
    fail "baseline %s records %S, the gate times %S" path base.case Bench_cases.push_name;
  let fresh_ns = fresh_push_ns () in
  Printf.printf "baseline (%s): %12.1f ns/op\n" base.git_rev base.ns_per_run;
  Printf.printf "fresh (min/3): %12.1f ns/op\n%!" fresh_ns;
  let limit = base.ns_per_run *. regression_factor in
  if fresh_ns > limit then
    fail_perf "streaming push regressed: %.1f ns/op > %.1f ns/op (baseline %.1f + %.0f%% budget)"
      fresh_ns limit base.ns_per_run
      ((regression_factor -. 1.0) *. 100.0);
  (* solve-memo budget: a digest-keyed hit must amortise the sweep *)
  let mc = Bench_cases.solve_memo_cost () in
  Printf.printf "solve memo:    %12.1f ns cold, %.1f ns warm (%.1fx, floor %.0fx)\n%!"
    mc.Bench_cases.cold_ns mc.Bench_cases.warm_ns mc.Bench_cases.speedup
    Bench_cases.min_solve_memo_speedup;
  if mc.Bench_cases.speedup < Bench_cases.min_solve_memo_speedup then
    fail_perf "memoised solve is only %.1fx faster than cold (floor %.0fx)"
      mc.Bench_cases.speedup Bench_cases.min_solve_memo_speedup;
  (* the no-op observability contract *)
  let oc = Bench_cases.measure_obs_cost () in
  Printf.printf "obs no-op:     %12.3f ns/probe, %.3f%% of a push (budget %.1f%%)\n%!"
    oc.Bench_cases.probe_ns
    (100.0 *. oc.Bench_cases.overhead_frac)
    (100.0 *. Bench_cases.max_obs_overhead_frac);
  if oc.Bench_cases.overhead_frac > Bench_cases.max_obs_overhead_frac then
    fail_perf "no-op Obs probes cost %.3f%% of a push (budget %.1f%%)"
      (100.0 *. oc.Bench_cases.overhead_frac)
      (100.0 *. Bench_cases.max_obs_overhead_frac);
  (* recording mode must stay cheap enough to leave on in a serving
     process *)
  let rc = Bench_cases.measure_recording_cost () in
  Printf.printf "obs recording: %12.1f ns/span (budget %.0f ns)\n%!" rc.Bench_cases.span_ns
    Bench_cases.max_ns_per_span;
  if rc.Bench_cases.span_ns > Bench_cases.max_ns_per_span then
    fail_perf "a recorded span costs %.1f ns (budget %.0f)" rc.Bench_cases.span_ns
      Bench_cases.max_ns_per_span;
  (* re-resolving an existing labeled child stays a bounded hash+lock
     (the step S5 keeps out of [@@hot] bodies) *)
  let lc = Bench_cases.measure_labeled_cost () in
  Printf.printf "labeled vec:   %12.3f ns/bump, %.1f ns/resolve (budget %.0f ns)\n%!"
    lc.Bench_cases.bump_ns lc.Bench_cases.resolve_ns Bench_cases.max_labeled_resolve_ns;
  if lc.Bench_cases.resolve_ns > Bench_cases.max_labeled_resolve_ns then
    fail_perf "resolving an existing labeled child costs %.1f ns (budget %.0f)"
      lc.Bench_cases.resolve_ns Bench_cases.max_labeled_resolve_ns;
  Printf.printf
    "OK: streaming push within %.0f%% of baseline; solve memo, Noop probes, recorded spans and \
     labeled resolves within budget\n"
    ((regression_factor -. 1.0) *. 100.0)

let () =
  let default = "BENCH_baseline.json" in
  match List.tl (Array.to_list Sys.argv) with
  | [ "--record" ] -> record default
  | [ "--record"; path ] -> record path
  | [] -> gate default
  | [ path ] when not (String.starts_with ~prefix:"-" path) -> gate path
  | _ ->
      prerr_endline "usage: perf_gate [--record] [BASELINE.json]";
      exit 2
