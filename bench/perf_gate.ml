(* Performance-regression gate over the DP hot path: time budgets
   only.  Word budgets are tier-1 tests in `dune runtest`.

   Usage: perf_gate [BASELINE.json]    (default: BENCH_baseline.json)

   Re-measures the canonical streaming-push benchmark with bechamel
   and compares it against the committed baseline.  Exits 1 when:

   - the fresh ns/op exceeds 1.25x the baseline's for the
     "extensions" / "streaming push x1000 m=6" entry,
   - a memoised [Solve_cache.solve] hit is less than
     [Bench_cases.min_solve_memo_speedup] times faster than the
     uncached sweep,
   - disabled [Obs] probes cost more than
     [Bench_cases.max_obs_overhead_frac] of a push,
   - a recorded span costs more than [Bench_cases.max_ns_per_span],
   - re-resolving an existing labeled child ([Obs.counter_vec])
     exceeds [Bench_cases.max_labeled_resolve_ns], or
   - the baseline is missing, malformed, or lacks the gated entry.

   Performance failures re-run the offending hot path under a
   recording sink and dump a Chrome trace to
   _build/trace/perf_gate_failure.json for triage
   (docs/OBSERVABILITY.md).

   Run it via `make perf-gate`; refresh the baseline with
   `make bench-baseline` after an intentional performance change. *)

open Dcache_bench_common
module Obs = Dcache_obs.Obs

let regression_factor = 1.25

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perf-gate: " ^ s);
      exit 1)
    fmt

(* Re-run the gated push workload with a recording sink and write the
   trace where the gate-failure triage docs point.  Only called on
   the perf failures — spans and counters of the exact code under
   gate, not of the measurement scaffolding. *)
let failure_trace_path = Filename.concat (Filename.concat "_build" "trace") "perf_gate_failure.json"

let dump_failure_trace () =
  let r = Obs.recorder () in
  Obs.set_sink (Obs.Recording r);
  ignore (Bench_cases.words_per_push ());
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

let () =
  let baseline_path = if Array.length Sys.argv > 1 then Sys.argv.(1) else "BENCH_baseline.json" in
  let text =
    try In_channel.with_open_text baseline_path In_channel.input_all
    with Sys_error e -> fail "cannot read baseline: %s" e
  in
  let baseline =
    match Bench_json.report_of_string text with
    | Ok r -> r
    | Error e -> fail "cannot parse %s: %s" baseline_path e
  in
  if not (String.equal baseline.Bench_json.schema Bench_json.schema_id) then
    fail "baseline %s has schema %S, expected %S" baseline_path baseline.Bench_json.schema
      Bench_json.schema_id;
  let base =
    match
      Bench_json.find_entry baseline ~group:Bench_cases.push_group ~name:Bench_cases.push_name
    with
    | Some e -> e
    | None ->
        fail "baseline %s lacks the %S / %S entry" baseline_path Bench_cases.push_group
          Bench_cases.push_name
  in
  if not (Float.is_finite base.Bench_json.ns_per_run) then
    fail "baseline %s has no finite ns/op for the gated entry" baseline_path;
  (* a single 0.5 s bechamel quota is noisy on a loaded (or single-core)
     machine; the minimum over a few runs is the robust per-op estimate,
     since scheduler interference only ever inflates timings *)
  let fresh_ns =
    let best = ref infinity in
    for _ = 1 to 3 do
      match Bench_cases.measure (Bench_cases.streaming_push_test ()) with
      | [ row ] when Float.is_finite row.Bench_cases.ns_per_run ->
          if row.Bench_cases.ns_per_run < !best then best := row.Bench_cases.ns_per_run
      | _ -> ()
    done;
    if Float.is_finite !best then !best
    else fail "fresh measurement produced no finite ns/op estimate"
  in
  Printf.printf "baseline (%s): %12.1f ns/op\n" baseline.Bench_json.git_rev
    base.Bench_json.ns_per_run;
  Printf.printf "fresh (min/3): %12.1f ns/op\n%!" fresh_ns;
  let limit = base.Bench_json.ns_per_run *. regression_factor in
  if fresh_ns > limit then
    fail_perf "streaming push regressed: %.1f ns/op > %.1f ns/op (baseline %.1f + %.0f%% budget)"
      fresh_ns limit base.Bench_json.ns_per_run
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
