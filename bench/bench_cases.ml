(* The measurements behind bench/perf_gate.exe: the gated
   streaming-push workload and its bechamel timing, the probes behind
   the gate's other time budgets, and the git revision stamped into a
   recorded baseline.  Word budgets are tier-1 tests, not gate
   checks. *)

open Bechamel
open Toolkit
open Dcache_core

let model = Cost_model.make ~mu:1.0 ~lambda:2.0 ()

let random_instance seed ~m ~n =
  let rng = Dcache_prelude.Rng.create seed in
  let clock = ref 0.0 in
  let requests =
    Array.init n (fun _ ->
        clock := !clock +. Dcache_prelude.Rng.float_in rng 0.05 1.0;
        Request.make ~server:(Dcache_prelude.Rng.int rng m) ~time:!clock)
  in
  Sequence.create_exn ~m requests

(* scheduler noise only ever inflates a timing, so the minimum of a
   few runs is the robust estimate *)
let min3 f = Float.min (f ()) (Float.min (f ()) (f ()))

(* ------------------------------------------------ the gated benchmark *)

let push_name = "streaming push x1000 m=6"

(* 1 000 pushes (m = 6, seed 8) into a fresh stream.  The bechamel
   case times it and the gate's failure trace replays it, so the trace
   counts exactly what was timed. *)
let push_workload () =
  let seq = random_instance 8 ~m:6 ~n:1000 in
  fun () ->
    let stream = Streaming_dp.create model ~m:6 in
    for i = 1 to Sequence.n seq do
      Streaming_dp.push stream ~server:(Sequence.server seq i) ~time:(Sequence.time seq i)
    done;
    ignore (Streaming_dp.cost stream)

let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()

(* bechamel's OLS estimate of one run of the workload, ns; nan when
   the fit fails *)
let push_run_ns () =
  let test = Test.make ~name:push_name (Staged.stage (push_workload ())) in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] test in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  match Hashtbl.find_opt (Analyze.all ols Instance.monotonic_clock raw) push_name with
  | Some result -> (
      match Analyze.OLS.estimates result with Some [ v ] -> v | Some _ | None -> nan)
  | None -> nan

(* The figure the gate compares and [perf_gate --record] writes: the
   minimum over three 0.5 s bechamel runs, skipping failed fits;
   infinity when all three fail. *)
let push_ns () =
  let finite_or_inf ns = if Float.is_finite ns then ns else infinity in
  min3 (fun () -> finite_or_inf (push_run_ns ()))

(* ------------------------------------------- solve memo cold vs warm *)

(* A warm [Solve_cache.solve] pays one digest of the input instead of
   the O(mn) sweep; the gate keeps that amortisation honest with a
   conservative floor (measured warm-ups land far above it). *)
let min_solve_memo_speedup = 10.0

type memo_cost = {
  cold_ns : float;  (* uncached Offline_dp.solve, min of 3 *)
  warm_ns : float;  (* memoised Solve_cache.solve hit, min of 3 *)
  speedup : float;
}

let solve_memo_cost () =
  let seq = random_instance 3 ~m:64 ~n:1000 in
  let clock = Dcache_obs.Clock.monotonic () in
  let timed ~iters f () =
    let t0 = Dcache_obs.Clock.now clock in
    for _ = 1 to iters do
      ignore (Offline_dp.cost (f ()))
    done;
    float_of_int (Dcache_obs.Clock.now clock - t0) /. float_of_int iters
  in
  let cold_run = timed ~iters:4 (fun () -> Offline_dp.solve model seq) in
  ignore (cold_run ());
  let cold_ns = min3 cold_run in
  Solve_cache.clear ();
  ignore (Solve_cache.solve model seq);
  let warm_run = timed ~iters:64 (fun () -> Solve_cache.solve model seq) in
  ignore (warm_run ());
  let warm_ns = min3 warm_run in
  { cold_ns; warm_ns; speedup = (if warm_ns > 0.0 then cold_ns /. warm_ns else infinity) }

(* ------------------------------------------ no-op observability cost *)

module Obs = Dcache_obs.Obs

(* The instrumented [Streaming_dp.push] pays exactly two [Obs.probe]
   calls under the Noop sink — one at entry (arming the duration
   timestamp) and one in the exit block — and every counter/gauge/
   histogram store sits inside the branches.  The gate holds
   [probes_per_push * probe_ns] under 2% of a measured push (that a
   disabled probe allocates nothing is a tier-1 test).  The probe cost
   is isolated differentially — the same loop over a plain [bool ref]
   is subtracted — so loop bookkeeping does not count against the
   budget. *)

let probes_per_push = 2
let max_obs_overhead_frac = 0.02

type obs_cost = {
  probe_ns : float;  (* per disabled probe, loop baseline subtracted *)
  push_ns : float;  (* per instrumented push, Noop sink *)
  overhead_frac : float;  (* probes_per_push * probe_ns / push_ns *)
}

let measure_obs_cost () =
  Obs.set_sink Obs.Noop;
  let clock = Dcache_obs.Clock.monotonic () in
  let iters = 2_000_000 in
  let hits = ref 0 in
  let probe_loop () =
    let t0 = Dcache_obs.Clock.now clock in
    for _ = 1 to iters do
      if Obs.probe () then incr hits
    done;
    float_of_int (Dcache_obs.Clock.now clock - t0)
  in
  let baseline_flag = ref false in
  let baseline_loop () =
    let t0 = Dcache_obs.Clock.now clock in
    for _ = 1 to iters do
      if !baseline_flag then incr hits
    done;
    float_of_int (Dcache_obs.Clock.now clock - t0)
  in
  (* warm both loops before timing *)
  ignore (probe_loop ());
  ignore (baseline_loop ());
  let probe_total = min3 probe_loop in
  let base_total = min3 baseline_loop in
  let per_iter total = total /. float_of_int iters in
  let probe_ns = Float.max 0.0 (per_iter probe_total -. per_iter base_total) in
  ignore !hits;
  (* an instrumented push, timed directly after 4 096 warm pushes *)
  let m = 6 in
  let n_warm = 4096 and n_measure = 16384 in
  let rng = Dcache_prelude.Rng.create 2025 in
  let total = n_warm + n_measure in
  let servers = Array.init total (fun _ -> Dcache_prelude.Rng.int rng m) in
  let times = Array.make total 0.0 in
  let tick = ref 0.0 in
  for i = 0 to total - 1 do
    tick := !tick +. Dcache_prelude.Rng.float_in rng 0.1 1.0;
    times.(i) <- !tick
  done;
  let push_run () =
    let stream = Streaming_dp.create model ~m in
    for i = 0 to n_warm - 1 do
      Streaming_dp.push stream ~server:servers.(i) ~time:times.(i)
    done;
    let t0 = Dcache_obs.Clock.now clock in
    for i = n_warm to total - 1 do
      Streaming_dp.push stream ~server:servers.(i) ~time:times.(i)
    done;
    float_of_int (Dcache_obs.Clock.now clock - t0)
  in
  ignore (push_run ());
  let push_ns = min3 push_run /. float_of_int n_measure in
  let overhead_frac =
    if push_ns > 0.0 then probe_ns *. float_of_int probes_per_push /. push_ns else 0.0
  in
  { probe_ns; push_ns; overhead_frac }

(* ------------------------------------------- labeled-family budgets *)

(* Labeled children ([Obs.counter_vec] and friends) keep a two-sided
   contract (docs/OBSERVABILITY.md): once resolved, a child IS a plain
   cell — bumping it is the same single atomic op as an unlabeled
   counter (its 0 words are a tier-1 test) — while resolution
   ([counter_with_label], the hash-interning step) takes the registry
   lock and is priced for registration or loop entry, never the
   per-request path (sema rule S5 flags it inside [@@hot] bodies).
   The resolve budget is deliberately loose: it bounds "hash a short
   string under a lock" and exists to catch an accidental O(children)
   rescan, not cache noise. *)
let max_labeled_resolve_ns = 20_000.0

type labeled_cost = {
  bump_ns : float;  (* wall ns per resolved-child bump, min of 3 *)
  resolve_ns : float;  (* per re-resolution of an existing child *)
}

let measure_labeled_cost () =
  (* bump under a live recording sink: the cell is actually written *)
  let r = Obs.recorder () in
  Obs.set_sink (Obs.Recording r);
  let clock = Dcache_obs.Clock.monotonic () in
  let v = Obs.counter_vec "bench.labeled" ~labels:[ "lane" ] in
  let c = Obs.counter_with_label v "hot" in
  let iters = 2_000_000 in
  let bump_loop () =
    for _ = 1 to iters do
      Obs.incr c
    done
  in
  bump_loop ();
  let bump_run () =
    let t0 = Dcache_obs.Clock.now clock in
    bump_loop ();
    float_of_int (Dcache_obs.Clock.now clock - t0)
  in
  let bump_ns = min3 bump_run /. float_of_int iters in
  let r_iters = 50_000 in
  let resolve_loop () =
    for _ = 1 to r_iters do
      ignore (Obs.counter_with_label v "hot" : Obs.counter)
    done
  in
  resolve_loop ();
  let resolve_run () =
    let t0 = Dcache_obs.Clock.now clock in
    resolve_loop ();
    float_of_int (Dcache_obs.Clock.now clock - t0)
  in
  let resolve_ns = min3 resolve_run /. float_of_int r_iters in
  Obs.set_sink Obs.Noop;
  { bump_ns; resolve_ns }

(* ---------------------------------------- recording-mode span budget *)

(* Recording is not free — each [Obs.spanned] pays two clock reads,
   two ring writes, and a duration-histogram record — but it has to
   stay cheap enough to leave on in a long-running serving process
   (docs/OBSERVABILITY.md).  The budget is deliberately loose: span_ns
   is scheduler-noisy even as a min-of-3, and it exists to catch an
   order-of-magnitude slowdown, not to pin microarchitectural noise.
   A span's words (at most 16) are a tier-1 test. *)
let max_ns_per_span = 2000.0

type recording_cost = { span_ns : float  (* wall ns per recorded span, min over runs *) }

let rec_span = Obs.span_name "bench.recording_cost"

let measure_recording_cost () =
  let clock = Dcache_obs.Clock.monotonic () in
  let r = Obs.recorder ~clock () in
  Obs.set_sink (Obs.Recording r);
  let iters = 100_000 in
  let work = ref 0 in
  let body () = incr work in
  let span_loop () =
    for _ = 1 to iters do
      Obs.spanned rec_span body
    done
  in
  (* warm: faults the ring columns and the span histogram in *)
  span_loop ();
  let timed () =
    let t0 = Dcache_obs.Clock.now clock in
    span_loop ();
    float_of_int (Dcache_obs.Clock.now clock - t0)
  in
  ignore (timed ());
  let best = min3 timed in
  Obs.set_sink Obs.Noop;
  ignore !work;
  { span_ns = best /. float_of_int iters }

(* ------------------------------------------------------- git revision *)

(* HEAD's commit id, suffixed "-dirty" when tracked files differ from
   it (a baseline recorded before its change is committed); "unknown"
   outside a git checkout *)
let git_rev () =
  match
    let ic = Unix.open_process_in "git rev-parse HEAD 2>/dev/null" in
    let line = In_channel.input_line ic in
    (Unix.close_process_in ic, line)
  with
  | Unix.WEXITED 0, Some rev ->
      if Sys.command "git diff --quiet HEAD 2>/dev/null" = 0 then rev else rev ^ "-dirty"
  | _ | (exception _) -> "unknown"
