(* Tests for the digest-keyed Offline_dp.solve memo cache. *)

open Dcache_core
open Helpers

(* the cache is module-level state shared across tests: reset the
   contents (cumulative counters survive by contract, so every
   assertion below works on deltas, never absolutes) *)
let fresh () =
  Solve_cache.clear ();
  Solve_cache.stats ()

let size () = (Solve_cache.stats ()).Solve_cache.size

(* the per-entry hit counts, most-used first, as [publish_freqs]
   exports them under a recording sink: ranks 0-7 of the labeled
   [solve_cache.entry_freq] family *)
let published_freqs () =
  let module Obs = Dcache_obs.Obs in
  Obs.set_sink (Obs.Recording (Obs.recorder ~capacity:16 ()));
  Fun.protect
    ~finally:(fun () ->
      Obs.set_sink Obs.Noop;
      Obs.reset ())
    (fun () ->
      Solve_cache.publish_freqs ();
      let gauges = gauge_values () in
      List.init 8 (fun rank ->
          int_of_float
            (List.assoc (Printf.sprintf "solve_cache.entry_freq{rank=\"%d\"}" rank) gauges)))

let instance seed ~m ~n =
  let rng = Dcache_prelude.Rng.create seed in
  let clock = ref 0.0 in
  let requests =
    Array.init n (fun _ ->
        clock := !clock +. Dcache_prelude.Rng.float_in rng 0.05 0.9;
        Request.make ~server:(Dcache_prelude.Rng.int rng m) ~time:!clock)
  in
  (Cost_model.make ~mu:1.0 ~lambda:2.0 (), Sequence.create_exn ~m requests)

let hit_is_physical () =
  let before = fresh () in
  let model, seq = instance 11 ~m:4 ~n:60 in
  let cold = Solve_cache.solve model seq in
  let warm = Solve_cache.solve model seq in
  Alcotest.(check bool) "hit returns the physically-same result" true (cold == warm);
  Alcotest.(check bool) "memoised schedules are shared too" true
    (Offline_dp.schedule cold == Offline_dp.schedule warm);
  let after = Solve_cache.stats () in
  Alcotest.(check int) "one miss" 1 (after.Solve_cache.misses - before.Solve_cache.misses);
  Alcotest.(check int) "one hit" 1 (after.Solve_cache.hits - before.Solve_cache.hits);
  Alcotest.(check int) "one live entry" 1 (size ())

let warm_equals_cold =
  qcheck ~count:100 "solve-cache: memoised result equals a direct solve"
    (nonempty_problem_arbitrary ())
    (fun { model; seq } ->
      Solve_cache.clear ();
      let direct = Offline_dp.solve model seq in
      ignore (Solve_cache.solve model seq);
      let warm = Solve_cache.solve model seq in
      let ds = Offline_dp.schedule direct and ws = Offline_dp.schedule warm in
      approx (Offline_dp.cost direct) (Offline_dp.cost warm)
      && Schedule.caches ds = Schedule.caches ws
      && Schedule.transfers ds = Schedule.transfers ws)

let distinct_inputs_miss () =
  let _ = fresh () in
  let model, seq = instance 21 ~m:3 ~n:40 in
  let model', seq' = instance 22 ~m:3 ~n:40 in
  ignore (Solve_cache.solve model seq);
  ignore (Solve_cache.solve model' seq');
  (* same sequence under a different cost model is a different key *)
  let bumped = Cost_model.make ~mu:1.5 ~lambda:2.0 () in
  ignore (Solve_cache.solve bumped seq);
  Alcotest.(check int) "three live entries" 3 (size ());
  Alcotest.(check (list int)) "no entry has hit yet" [ 0; 0; 0; 0; 0; 0; 0; 0 ] (published_freqs ())

let freqs_sorted () =
  let _ = fresh () in
  let model, seq = instance 31 ~m:4 ~n:30 in
  let model', seq' = instance 32 ~m:4 ~n:30 in
  ignore (Solve_cache.solve model seq);
  ignore (Solve_cache.solve model' seq');
  for _ = 1 to 3 do
    ignore (Solve_cache.solve model' seq')
  done;
  ignore (Solve_cache.solve model seq);
  Alcotest.(check (list int)) "per-entry hit counts, most-used first" [ 3; 1; 0; 0; 0; 0; 0; 0 ]
    (published_freqs ())

(* the table holds 64 entries *)
let lru_eviction () =
  let before = fresh () in
  let a_model, a_seq = instance 41 ~m:3 ~n:25 in
  let b_model, b_seq = instance 42 ~m:3 ~n:25 in
  let a = Solve_cache.solve a_model a_seq in
  ignore (Solve_cache.solve b_model b_seq);
  for k = 1 to 62 do
    let model, seq = instance (1000 + k) ~m:3 ~n:25 in
    ignore (Solve_cache.solve model seq)
  done;
  ignore (Solve_cache.solve a_model a_seq);
  (* a is now more recently used than b: inserting c must evict b *)
  let c_model, c_seq = instance 43 ~m:3 ~n:25 in
  ignore (Solve_cache.solve c_model c_seq);
  Alcotest.(check int) "bounded at capacity" 64 (size ());
  let mid = Solve_cache.stats () in
  Alcotest.(check int) "one eviction" 1 (mid.Solve_cache.evictions - before.Solve_cache.evictions);
  Alcotest.(check bool) "survivor a still hits" true (Solve_cache.solve a_model a_seq == a);
  (* re-requesting b must run the sweep again: it was the LRU victim *)
  ignore (Solve_cache.solve b_model b_seq);
  let after = Solve_cache.stats () in
  Alcotest.(check int) "b was the victim" 66 (after.Solve_cache.misses - before.Solve_cache.misses)

let clear_keeps_counters () =
  let _ = fresh () in
  let model, seq = instance 51 ~m:2 ~n:20 in
  ignore (Solve_cache.solve model seq);
  ignore (Solve_cache.solve model seq);
  let before = Solve_cache.stats () in
  Solve_cache.clear ();
  let after = Solve_cache.stats () in
  Alcotest.(check int) "clear empties the table" 0 after.Solve_cache.size;
  Alcotest.(check int) "hits survive clear" before.Solve_cache.hits after.Solve_cache.hits;
  Alcotest.(check int) "misses survive clear" before.Solve_cache.misses after.Solve_cache.misses;
  ignore (Solve_cache.solve model seq);
  let again = Solve_cache.stats () in
  Alcotest.(check int) "post-clear lookup is a miss" (before.Solve_cache.misses + 1)
    again.Solve_cache.misses

let edge_instances_cached () =
  let _ = fresh () in
  (* the degenerate n = 0 instance and a single-request one are both
     valid keys and must round-trip like any other *)
  let model = Cost_model.make ~mu:1.0 ~lambda:2.0 () in
  let empty = Sequence.create_exn ~m:2 [||] in
  let single = Sequence.create_exn ~m:2 [| Request.make ~server:1 ~time:1.0 |] in
  check_float "empty optimum" 0.0 (Offline_dp.cost (Solve_cache.solve model empty));
  ignore (Solve_cache.solve model single);
  Alcotest.(check bool) "empty hit" true (Solve_cache.solve model empty == Solve_cache.solve model empty);
  Alcotest.(check int) "both cached" 2 (size ())

(* the fingerprint is the sequence half of the cache key: stable
   across calls, and it must separate sequences that differ only in a
   server label or a timestamp's IEEE bits *)
let fingerprint_separates () =
  let fp = Sequence.fingerprint in
  let _, seq = instance 71 ~m:4 ~n:30 in
  Alcotest.(check string) "stable across calls" (fp seq) (fp seq);
  (* the layout: m and n as int64, then (int32 server, int64 time bits)
     per request, little-endian *)
  let layout = Buffer.create 256 in
  Buffer.add_int64_le layout (Int64.of_int (Sequence.m seq));
  Buffer.add_int64_le layout (Int64.of_int (Sequence.n seq));
  for i = 1 to Sequence.n seq do
    Buffer.add_int32_le layout (Int32.of_int (Sequence.server seq i));
    Buffer.add_int64_le layout (Int64.bits_of_float (Sequence.time seq i))
  done;
  Alcotest.(check string) "documented layout" (Buffer.contents layout) (fp seq);
  let requests = Sequence.requests seq in
  let tweak_server =
    Array.mapi
      (fun i r ->
        if i = 10 then { r with Request.server = (r.Request.server + 1) mod 4 } else r)
      requests
  in
  let tweak_time =
    Array.mapi
      (fun i r ->
        if i = 10 then { r with Request.time = Float.succ r.Request.time } else r)
      requests
  in
  Alcotest.(check bool) "server relabel changes the fingerprint" false
    (fp seq = fp (Sequence.create_exn ~m:4 tweak_server));
  Alcotest.(check bool) "one-ulp time nudge changes the fingerprint" false
    (fp seq = fp (Sequence.create_exn ~m:4 tweak_time))

let suite =
  [
    case "solve-cache: hit is physically equal and counted" hit_is_physical;
    warm_equals_cold;
    case "solve-cache: distinct models/sequences get distinct keys" distinct_inputs_miss;
    case "solve-cache: all_freqs sorts most-used first" freqs_sorted;
    case "solve-cache: LRU eviction honours the bound" lru_eviction;
    case "solve-cache: clear drops entries, keeps traffic counters" clear_keeps_counters;
    case "solve-cache: degenerate instances are valid keys" edge_instances_cached;
    case "solve-cache: fingerprints are stable and separating" fingerprint_separates;
  ]
