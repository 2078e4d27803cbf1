(* Shared measurement plumbing for bench/main.exe and
   bench/perf_gate.exe: the bechamel configuration, the canonical
   streaming-push benchmark the regression gate tracks, the timing
   probes behind the gate's other time budgets, the direct
   minor-words-per-push probe recorded in the JSON reports, and the
   git revision stamped into BENCH_results.json.  Word budgets are
   tier-1 tests, not gate checks. *)

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

(* ------------------------------------------------ the gated benchmark *)

let push_group = "extensions"
let push_name = "streaming push x1000 m=6"

let streaming_push_test () =
  let seq = random_instance 8 ~m:6 ~n:1000 in
  Test.make ~name:push_name
    (Staged.stage (fun () ->
         let stream = Streaming_dp.create model ~m:6 in
         for i = 1 to Sequence.n seq do
           Streaming_dp.push stream ~server:(Sequence.server seq i) ~time:(Sequence.time seq i)
         done;
         ignore (Streaming_dp.cost stream)))

(* Minor words per [Streaming_dp.push] after 4 096 warm pushes: the
   caller-side box of the [~time] float argument, 2 words.  Recorded in
   the JSON reports; the tier-1 test [streaming: push allocation
   budget] holds it to 3. *)
let words_per_push () =
  let m = 8 in
  let n_warm = 4096 and n_measure = 16384 in
  let rng = Dcache_prelude.Rng.create 2024 in
  let total = n_warm + n_measure in
  let servers = Array.init total (fun _ -> Dcache_prelude.Rng.int rng m) in
  let times = Array.make total 0.0 in
  let clock = ref 0.0 in
  for i = 0 to total - 1 do
    clock := !clock +. Dcache_prelude.Rng.float_in rng 0.1 1.0;
    times.(i) <- !clock
  done;
  let stream = Streaming_dp.create model ~m in
  for i = 0 to n_warm - 1 do
    Streaming_dp.push stream ~server:servers.(i) ~time:times.(i)
  done;
  let before = Gc.minor_words () in
  for i = n_warm to total - 1 do
    Streaming_dp.push stream ~server:servers.(i) ~time:times.(i)
  done;
  let after = Gc.minor_words () in
  (after -. before) /. float_of_int n_measure

(* ------------------------------------------- reconstruction words *)

(* The `reconstruct` bench entry re-derives the schedule of one solved
   instance over and over — exactly the memoised warm path: the solver
   state is append-only, so [Streaming_dp.schedule] returns the cached
   physically-equal schedule without re-walking.  Printed by
   [main.exe dp]; the tier-1 tests [streaming: warm reconstruction is
   allocation-free] and [offline: allocation budgets on the ledger
   workloads] hold the warm and cold walks to their budgets. *)
let reconstruct_minor_words () =
  let seq = random_instance 1 ~m:8 ~n:1000 in
  let r = Offline_dp.solve model seq in
  (* cold call: fills the memo and the preallocated walk buffers *)
  ignore (Offline_dp.schedule r);
  let iters = 64 in
  let calib =
    let b0 = Gc.minor_words () in
    let b1 = Gc.minor_words () in
    b1 -. b0
  in
  let w0 = Gc.minor_words () in
  for _ = 1 to iters do
    ignore (Offline_dp.schedule r)
  done;
  let w1 = Gc.minor_words () in
  Float.max 0.0 ((w1 -. w0 -. calib) /. float_of_int iters)

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
  let min3 f =
    ignore (f ());
    let best = ref infinity in
    for _ = 1 to 3 do
      let v = f () in
      if v < !best then best := v
    done;
    !best
  in
  let cold_iters = 4 in
  let cold_run () =
    let t0 = Dcache_obs.Clock.now clock in
    for _ = 1 to cold_iters do
      ignore (Offline_dp.cost (Offline_dp.solve model seq))
    done;
    float_of_int (Dcache_obs.Clock.now clock - t0)
  in
  let cold_ns = min3 cold_run /. float_of_int cold_iters in
  Solve_cache.clear ();
  ignore (Solve_cache.solve model seq);
  let warm_iters = 64 in
  let warm_run () =
    let t0 = Dcache_obs.Clock.now clock in
    for _ = 1 to warm_iters do
      ignore (Offline_dp.cost (Solve_cache.solve model seq))
    done;
    float_of_int (Dcache_obs.Clock.now clock - t0)
  in
  let warm_ns = min3 warm_run /. float_of_int warm_iters in
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
  (* warm both loops, then take the min of 3: scheduler noise only
     ever inflates a timing *)
  ignore (probe_loop ());
  ignore (baseline_loop ());
  let min3 f =
    let best = ref infinity in
    for _ = 1 to 3 do
      let v = f () in
      if v < !best then best := v
    done;
    !best
  in
  let probe_total = min3 probe_loop in
  let base_total = min3 baseline_loop in
  let per_iter total = total /. float_of_int iters in
  let probe_ns = Float.max 0.0 (per_iter probe_total -. per_iter base_total) in
  ignore !hits;
  (* an instrumented push, measured the same direct way as
     [words_per_push] *)
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

let labeled_vec () = Obs.counter_vec "bench.labeled" ~labels:[ "lane" ]

let measure_labeled_cost () =
  (* bump under a live recording sink: the cell is actually written *)
  let r = Obs.recorder () in
  Obs.set_sink (Obs.Recording r);
  let clock = Dcache_obs.Clock.monotonic () in
  let v = labeled_vec () in
  let c = Obs.counter_with_label v "hot" in
  let iters = 2_000_000 in
  let bump_loop () =
    for _ = 1 to iters do
      Obs.incr c
    done
  in
  bump_loop ();
  let min3 f =
    let best = ref infinity in
    for _ = 1 to 3 do
      let t = f () in
      if t < !best then best := t
    done;
    !best
  in
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

(* The bechamel-tracked shape of the same path: resolve + bump per
   iteration, i.e. the cost of doing it the way S5 forbids — kept in
   the timing report so the interning step has a trend line. *)
let labeled_group = "obs"
let labeled_name = "labeled resolve+bump x1000"

let labeled_test () =
  let v = labeled_vec () in
  Test.make ~name:labeled_name
    (Staged.stage (fun () ->
         for _ = 1 to 1000 do
           Obs.incr (Obs.counter_with_label v "hot")
         done))

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
  let best = ref infinity in
  for _ = 1 to 3 do
    let v = timed () in
    if v < !best then best := v
  done;
  Obs.set_sink Obs.Noop;
  ignore !work;
  { span_ns = !best /. float_of_int iters }

(* ----------------------------------------------------- measurement *)

type row = { name : string; ns_per_run : float; minor_words_per_run : float }

let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()

let measure test =
  let instances = Instance.[ monotonic_clock; minor_allocated ] in
  let raw = Benchmark.all cfg instances test in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let time = Analyze.all ols Instance.monotonic_clock raw in
  let words = Analyze.all ols Instance.minor_allocated raw in
  let estimate table name =
    match Hashtbl.find_opt table name with
    | Some result -> (
        match Analyze.OLS.estimates result with Some [ v ] -> v | Some _ | None -> nan)
    | None -> nan
  in
  (* dcache-lint: allow R1 — fold order is immediately erased by the sort below *)
  let names = Hashtbl.fold (fun name _ acc -> name :: acc) time [] in
  let names = List.sort String.compare names in
  List.map
    (fun name -> { name; ns_per_run = estimate time name; minor_words_per_run = estimate words name })
    names

(* bechamel names grouped elements "<group>/<name>"; the JSON report
   keeps the two separate. *)
let strip_group ~group name =
  let prefix = group ^ "/" in
  let pl = String.length prefix in
  if String.length name > pl && String.equal (String.sub name 0 pl) prefix then
    String.sub name pl (String.length name - pl)
  else name

(* ------------------------------------------------------- git revision *)

let git_rev () =
  let line path = try In_channel.with_open_text path In_channel.input_line with _ -> None in
  match line ".git/HEAD" with
  | None -> "unknown"
  | Some head -> (
      let head = String.trim head in
      if String.length head >= 5 && String.equal (String.sub head 0 5) "ref: " then
        let r = String.sub head 5 (String.length head - 5) in
        match line (Filename.concat ".git" r) with
        | Some h -> String.trim h
        | None -> "unknown"
      else head)
