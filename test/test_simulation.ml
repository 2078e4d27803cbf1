(* Tests for the discrete-event engine, its policies, and the replay
   cross-validation loop. *)

open Dcache_core
open Helpers
module Sim = Dcache_sim

let unit = Cost_model.unit

(* ------------------------------------------------------ cross-validation *)

let engine_sc_equals_analytic =
  qcheck ~count:300 "engine: timer-driven SC policy reproduces Online_sc exactly"
    (nonempty_problem_arbitrary ())
    (fun { model; seq } ->
      let analytic = Online_sc.run model seq in
      let engine = Sim.Engine.run (module Sim.Sc_policy) model seq in
      approx ~eps:1e-6 analytic.total_cost engine.metrics.total_cost
      && approx ~eps:1e-6 analytic.caching_cost engine.metrics.caching_cost
      && analytic.num_transfers = engine.metrics.num_transfers)

let replay_optimal_schedule =
  qcheck ~count:300 "engine: replaying the optimal schedule bills exactly C(n)"
    (nonempty_problem_arbitrary ())
    (fun { model; seq } ->
      let dp = Offline_dp.solve model seq in
      let sched = Offline_dp.schedule dp in
      let result = Sim.Engine.run (Sim.Replay.make sched) model seq in
      approx ~eps:1e-6 result.metrics.total_cost (Offline_dp.cost dp))

let replay_emits_equivalent_schedule =
  qcheck ~count:150 "engine: the engine's recorded schedule prices like the replayed one"
    (nonempty_problem_arbitrary ())
    (fun { model; seq } ->
      let sched = Offline_dp.schedule (Offline_dp.solve model seq) in
      let result = Sim.Engine.run (Sim.Replay.make sched) model seq in
      approx ~eps:1e-6 (Schedule.cost model result.schedule) (Schedule.cost model sched))

let engine_simple_policies_match_analytic =
  qcheck ~count:200 "engine: static-home and follow policies match their analytic outcomes"
    (nonempty_problem_arbitrary ())
    (fun { model; seq } ->
      let home = Sim.Engine.run (module Sim.Simple_policies.Static_home) model seq in
      let follow = Sim.Engine.run (module Sim.Simple_policies.Follow) model seq in
      approx ~eps:1e-6 home.metrics.total_cost
        (policy "static-home" model seq).cost
      && approx ~eps:1e-6 follow.metrics.total_cost
           (policy "follow" model seq).cost)

let engine_cache_everywhere_matches =
  qcheck ~count:200 "engine: cache-everywhere policy matches its analytic outcome"
    (nonempty_problem_arbitrary ())
    (fun { model; seq } ->
      let r = Sim.Engine.run (module Sim.Simple_policies.Cache_everywhere) model seq in
      approx ~eps:1e-6 r.metrics.total_cost
        (policy "cache-everywhere" model seq).cost)

(* --------------------------------------------------------------- metrics *)

let metrics_hit_accounting () =
  let seq = Sequence.of_list ~m:2 [ (0, 0.5); (1, 1.0); (1, 1.5) ] in
  let r = Sim.Engine.run (module Sim.Sc_policy) unit seq in
  (* r1 hits the initial copy; r2 misses; r3 hits the fresh copy *)
  Alcotest.(check int) "hits" 2 r.metrics.cache_hits;
  Alcotest.(check int) "misses" 1 r.metrics.cache_misses;
  check_float "hit ratio" (2.0 /. 3.0) (Sim.Metrics.hit_ratio r.metrics)

let metrics_copy_time_integral () =
  (* static home: exactly one resident copy for the whole horizon *)
  let seq = Sequence.of_list ~m:2 [ (1, 2.0); (1, 4.0) ] in
  let r = Sim.Engine.run (module Sim.Simple_policies.Static_home) unit seq in
  check_float "copy-time = horizon" 4.0 r.metrics.copy_time;
  Alcotest.(check int) "peak copies" 1 r.metrics.peak_copies

let metrics_peak_copies_cache_everywhere () =
  let seq = Sequence.of_list ~m:3 [ (1, 1.0); (2, 2.0) ] in
  let r = Sim.Engine.run (module Sim.Simple_policies.Cache_everywhere) unit seq in
  Alcotest.(check int) "three residents at the end" 3 r.metrics.peak_copies

(* ------------------------------------------------------------ invariants *)

module Misbehaving_drop_all = struct
  type t = unit

  let name = "drop-all"
  let create _ _ = ()
  let init () _ = []

  let on_request () (view : Sim.Policy.view) ~index:_ ~server =
    (* serve, then drop every copy incl. our own: must trip the engine *)
    let drops = List.filter_map (fun s -> if view.holds s then Some (Sim.Policy.Drop s) else None)
        (List.init 3 Fun.id) in
    (if view.holds server then [ Sim.Policy.Serve_from_cache ]
     else [ Sim.Policy.Fetch { src = (if server = 0 then 1 else 0) } ])
    @ drops

  let on_timer () _ ~server:_ = []
end

module Misbehaving_no_serve = struct
  type t = unit

  let name = "no-serve"
  let create _ _ = ()
  let init () _ = []
  let on_request () _ ~index:_ ~server:_ = []
  let on_timer () _ ~server:_ = []
end

module Misbehaving_ghost_fetch = struct
  type t = unit

  let name = "ghost-fetch"
  let create _ _ = ()
  let init () _ = []

  let on_request () (view : Sim.Policy.view) ~index:_ ~server =
    if view.holds server then [ Sim.Policy.Serve_from_cache ]
    else
      (* always fetch from a server that certainly holds nothing *)
      let empty = List.find (fun s -> not (view.holds s)) (List.init 3 (fun i -> (server + i + 1) mod 3)) in
      [ Sim.Policy.Fetch { src = empty } ]

  let on_timer () _ ~server:_ = []
end

let engine_rejects_bad_policies () =
  let seq = Sequence.of_list ~m:3 [ (1, 1.0); (2, 2.0) ] in
  let trips (module P : Sim.Policy.POLICY) =
    try
      ignore (Sim.Engine.run (module P) unit seq);
      false
    with Sim.Engine.Engine_error _ -> true
  in
  Alcotest.(check bool) "dropping the last copy" true (trips (module Misbehaving_drop_all));
  Alcotest.(check bool) "failing to serve" true (trips (module Misbehaving_no_serve));
  Alcotest.(check bool) "fetching from an empty server" true (trips (module Misbehaving_ghost_fetch))

let engine_rejects_past_timer () =
  let module Past_timer = struct
    type t = unit

    let name = "past-timer"
    let create _ _ = ()
    let init () _ = []

    let on_request () (view : Sim.Policy.view) ~index:_ ~server =
      let serve =
        if view.holds server then [ Sim.Policy.Serve_from_cache ]
        else [ Sim.Policy.Fetch { src = 0 } ]
      in
      serve @ [ Sim.Policy.Set_timer { server; at = view.now -. 1.0 } ]

    let on_timer () _ ~server:_ = []
  end in
  let seq = Sequence.of_list ~m:2 [ (1, 2.0) ] in
  Alcotest.(check bool) "past timer" true
    (try ignore (Sim.Engine.run (module Past_timer) unit seq); false
     with Sim.Engine.Engine_error _ -> true)

(* --------------------------------------------------------- heterogeneous *)

let heterogeneous_costs_respected () =
  (* one remote request; the transfer price depends on the pair *)
  let seq = Sequence.of_list ~m:3 [ (2, 1.0) ] in
  let costs =
    {
      Sim.Engine.mu_of = (fun s -> if s = 0 then 2.0 else 1.0);
      lambda_of = (fun ~src ~dst -> if src = 0 && dst = 2 then 7.0 else 1.0);
      upload_of = (fun _ -> infinity);
    }
  in
  let r = Sim.Engine.run ~costs (module Sim.Simple_policies.Static_home) unit seq in
  (* s0 caches [0,1] at mu=2, transfer 0->2 at 7 *)
  check_float "hetero bill" 9.0 r.metrics.total_cost

let heterogeneous_sc_still_feasible =
  qcheck ~count:100 "engine: SC under heterogeneous costs completes and bills positively"
    (nonempty_problem_arbitrary ~max_m:4 ())
    (fun { model; seq } ->
      let costs =
        {
          Sim.Engine.mu_of = (fun s -> 1.0 +. (0.5 *. float_of_int s));
          lambda_of = (fun ~src ~dst -> 1.0 +. (0.25 *. float_of_int (abs (src - dst))));
          upload_of = (fun _ -> infinity);
        }
      in
      let r = Sim.Engine.run ~costs (module Sim.Sc_policy) model seq in
      r.metrics.total_cost > 0.0)

let suite =
  [
    engine_sc_equals_analytic;
    replay_optimal_schedule;
    replay_emits_equivalent_schedule;
    engine_simple_policies_match_analytic;
    engine_cache_everywhere_matches;
    case "metrics: hit/miss accounting" metrics_hit_accounting;
    case "metrics: copy-time integral" metrics_copy_time_integral;
    case "metrics: peak copies" metrics_peak_copies_cache_everywhere;
    case "engine: rejects invariant-violating policies" engine_rejects_bad_policies;
    case "engine: rejects timers armed in the past" engine_rejects_past_timer;
    case "engine: heterogeneous costs respected" heterogeneous_costs_respected;
    heterogeneous_sc_still_feasible;
  ]
