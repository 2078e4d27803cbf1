open Dcache_core

type outcome = { name : string; schedule : Schedule.t; cost : float }

let outcome model name schedule = { name; schedule; cost = Schedule.cost model schedule }

let transfer src dst time = { Schedule.src = Schedule.From_server src; dst; time }

let static_home model seq =
  let horizon = Sequence.horizon seq in
  let caches =
    if horizon > 0. then [ { Schedule.server = 0; from_time = 0.; to_time = horizon } ] else []
  in
  let transfers = ref [] in
  for i = 1 to Sequence.n seq do
    let s = Sequence.server seq i in
    if s <> 0 then transfers := transfer 0 s (Sequence.time seq i) :: !transfers
  done;
  outcome model "static-home" (Schedule.make ~caches ~transfers:!transfers)

let follow model seq =
  let caches = ref [] and transfers = ref [] in
  let location = ref 0 and since = ref 0.0 in
  let add_cache server from_time to_time =
    if to_time > from_time then
      caches := { Schedule.server; from_time; to_time } :: !caches
  in
  for i = 1 to Sequence.n seq do
    let s = Sequence.server seq i and ti = Sequence.time seq i in
    if s <> !location then begin
      add_cache !location !since ti;
      transfers := transfer !location s ti :: !transfers;
      location := s;
      since := ti
    end
  done;
  add_cache !location !since (Sequence.horizon seq);
  outcome model "follow" (Schedule.make ~caches:!caches ~transfers:!transfers)

let cache_everywhere model seq =
  let horizon = Sequence.horizon seq in
  let m = Sequence.m seq in
  let touched = Array.make m false in
  touched.(0) <- true;
  let caches = ref [] and transfers = ref [] in
  let add_cache server from_time =
    if horizon > from_time then
      caches := { Schedule.server; from_time; to_time = horizon } :: !caches
  in
  add_cache 0 0.0;
  for i = 1 to Sequence.n seq do
    let s = Sequence.server seq i in
    if not touched.(s) then begin
      touched.(s) <- true;
      let ti = Sequence.time seq i in
      transfers := transfer 0 s ti :: !transfers;
      add_cache s ti
    end
  done;
  outcome model "cache-everywhere" (Schedule.make ~caches:!caches ~transfers:!transfers)

let classic_lru ~capacity model seq =
  if capacity < 1 then invalid_arg "Online_policies.classic_lru: capacity must be positive";
  let m = Sequence.m seq in
  let cached_since = Array.make m nan in
  let last_use = Array.make m nan in
  (* flat membership state: a bool column plus a count instead of a
     cons list, so the hit test is one load and the MRU/LRU extrema
     are closure- and cell-free scans — the old list walk burned ~80k
     minor words/run on List.mem, the fold closures and List.filter *)
  let in_cache = Array.make m false in
  let count = ref 1 in
  in_cache.(0) <- true;
  cached_since.(0) <- 0.0;
  last_use.(0) <- 0.0;
  let caches = ref [] and transfers = ref [] in
  let add_cache server from_time to_time =
    if to_time > from_time then
      caches := { Schedule.server; from_time; to_time } :: !caches
  in
  (* total extrema over the member columns: [-1] on an empty cache
     set, which is reachable in principle once a policy variant evicts
     every member.  Distinct request times make ties impossible, so
     the strict comparisons pick the same member the old
     first-wins list fold did. *)
  let mru () =
    let best = ref (-1) in
    for k = 0 to m - 1 do
      if in_cache.(k) && (!best < 0 || last_use.(k) > last_use.(!best)) then best := k
    done;
    !best
  in
  let lru () =
    let best = ref (-1) in
    for k = 0 to m - 1 do
      if in_cache.(k) && (!best < 0 || last_use.(k) < last_use.(!best)) then best := k
    done;
    !best
  in
  for i = 1 to Sequence.n seq do
    let s = Sequence.server seq i and ti = Sequence.time seq i in
    if in_cache.(s) then last_use.(s) <- ti
    else begin
      (* miss: bring the copy in from the most recently used member,
         or re-upload from external storage if no member holds one *)
      (match mru () with
      | -1 ->
          transfers := { Schedule.src = Schedule.From_external; dst = s; time = ti } :: !transfers
      | src -> transfers := transfer src s ti :: !transfers);
      in_cache.(s) <- true;
      incr count;
      cached_since.(s) <- ti;
      last_use.(s) <- ti;
      if !count > capacity then begin
        match lru () with
        | -1 -> ()
        | victim ->
            in_cache.(victim) <- false;
            decr count;
            add_cache victim cached_since.(victim) ti
      end
    end
  done;
  let horizon = Sequence.horizon seq in
  for k = 0 to m - 1 do
    if in_cache.(k) then add_cache k cached_since.(k) horizon
  done;
  outcome model
    (Printf.sprintf "classic-lru(k=%d)" capacity)
    (Schedule.make ~caches:!caches ~transfers:!transfers)

let sc ?epoch_size model seq =
  let run = Online_sc.run ?epoch_size ~record_events:true model seq in
  { name = "speculative-caching"; schedule = Online_sc.schedule_of_run seq run; cost = run.total_cost }

let randomized_sc ~rng model seq =
  (* inverse-CDF draw from f(x) = e^x / (e - 1) on [0, 1] (the density
     of the e/(e-1)-competitive randomized ski-rental strategy) *)
  let u = Dcache_prelude.Rng.float rng 1.0 in
  let x = log (1.0 +. (u *. (Float.exp 1.0 -. 1.0))) in
  let window = Float.max 1e-12 (x *. Cost_model.delta_t model) in
  let run = Online_sc.run ~window ~record_events:true model seq in
  {
    name = "randomized-sc";
    schedule = Online_sc.schedule_of_run seq run;
    cost = run.total_cost;
  }

let randomized_sc_per_copy ~rng model seq =
  (* a fresh ski-rental draw for every copy refresh, not one per run *)
  let delta_t = Cost_model.delta_t model in
  let window_policy ~server:_ ~time:_ =
    let u = Dcache_prelude.Rng.float rng 1.0 in
    let x = log (1.0 +. (u *. (Float.exp 1.0 -. 1.0))) in
    Float.max 1e-12 (x *. delta_t)
  in
  let run = Online_sc.run ~window_policy ~record_events:true model seq in
  {
    name = "randomized-sc-per-copy";
    schedule = Online_sc.schedule_of_run seq run;
    cost = run.total_cost;
  }

let all_deterministic ?(lru_capacity = 2) model seq =
  [
    static_home model seq;
    follow model seq;
    cache_everywhere model seq;
    classic_lru ~capacity:lru_capacity model seq;
    sc model seq;
  ]
