open Dcache_core
module Obs = Dcache_obs.Obs

(* one span per simulated run; counters mirror the Metrics.t totals
   so end-of-run snapshots land in traces *)
let sp_run = Obs.span_name "engine.run"
let c_hits = Obs.counter "engine.cache_hits"
let c_misses = Obs.counter "engine.cache_misses"
let c_transfers = Obs.counter "engine.transfers"
let c_uploads = Obs.counter "engine.uploads"
let c_evictions = Obs.counter "engine.evictions"

(* per-policy breakdown of the same totals, labeled by [P.name];
   children resolve once per run (end-of-run accounting, not the
   request loop), under distinct base names so the flat aggregates
   above keep their own Prometheus families *)
let v_policy_hits = Obs.counter_vec "engine.policy_cache_hits" ~labels:[ "policy" ]
let v_policy_misses = Obs.counter_vec "engine.policy_cache_misses" ~labels:[ "policy" ]
let v_policy_transfers = Obs.counter_vec "engine.policy_transfers" ~labels:[ "policy" ]

type costs = {
  mu_of : int -> float;
  lambda_of : src:int -> dst:int -> float;
  upload_of : int -> float;
}

let homogeneous model =
  {
    mu_of = (fun _ -> model.Cost_model.mu);
    lambda_of = (fun ~src:_ ~dst:_ -> model.Cost_model.lambda);
    upload_of = (fun _ -> model.Cost_model.upload);
  }

exception Engine_error of string

let error fmt = Format.kasprintf (fun s -> raise (Engine_error s)) fmt

type result = { metrics : Metrics.t; schedule : Schedule.t }

type state = {
  costs : costs;
  resident : bool array;
  since : float array;  (* residency start of the live copy *)
  mutable live : int;
  mutable now : float;
  mutable caching : float;
  mutable transfer : float;
  mutable upload : float;
  mutable num_transfers : int;
  mutable num_uploads : int;
  mutable hits : int;
  mutable misses : int;
  mutable peak : int;
  mutable copy_time : float;
  mutable last_integration : float;
  mutable caches : Schedule.cache list;
  mutable transfers : Schedule.transfer list;
  timers : (float * int * int) Dcache_prelude.Pqueue.t;  (* time, stamp, server *)
  mutable timer_stamp : int;
}

let integrate st time =
  st.copy_time <- st.copy_time +. (float_of_int st.live *. (time -. st.last_integration));
  st.last_integration <- time

let add_copy st server =
  if st.resident.(server) then error "policy added a copy to s%d which already holds one" server;
  st.resident.(server) <- true;
  st.since.(server) <- st.now;
  st.live <- st.live + 1;
  if st.live > st.peak then st.peak <- st.live

let remove_copy st server =
  if not st.resident.(server) then error "policy dropped s%d which holds no copy" server;
  st.resident.(server) <- false;
  st.live <- st.live - 1;
  st.caching <- st.caching +. (st.costs.mu_of server *. (st.now -. st.since.(server)));
  if st.now > st.since.(server) then
    st.caches <-
      { Schedule.server; from_time = st.since.(server); to_time = st.now } :: st.caches

let record_transfer st src dst =
  st.transfer <- st.transfer +. st.costs.lambda_of ~src ~dst;
  st.num_transfers <- st.num_transfers + 1;
  st.transfers <- { Schedule.src = Schedule.From_server src; dst; time = st.now } :: st.transfers

let record_upload st dst =
  st.upload <- st.upload +. st.costs.upload_of dst;
  st.num_uploads <- st.num_uploads + 1;
  st.transfers <- { Schedule.src = Schedule.From_external; dst; time = st.now } :: st.transfers

let view st =
  { Policy.now = st.now; holds = (fun s -> st.resident.(s)); live_copies = st.live }

(* Apply one policy action.  [request_server] is the server of the
   request being processed, if any; serving actions are only legal in
   request context. *)
let apply st ~request_server ~served action =
  let serving () =
    match request_server with
    | None -> error "policy issued a serving action outside a request"
    | Some s ->
        if !served then error "policy served the same request twice";
        served := true;
        s
  in
  match action with
  | Policy.Serve_from_cache ->
      let s = serving () in
      if not st.resident.(s) then error "Serve_from_cache on s%d with no resident copy" s
  | Policy.Fetch { src } ->
      let dst = serving () in
      if src = dst then error "Fetch with src = dst = s%d" src;
      if not st.resident.(src) then error "Fetch from s%d which holds no copy" src;
      record_transfer st src dst;
      add_copy st dst
  | Policy.Fetch_and_discard { src } ->
      let dst = serving () in
      if src = dst then error "Fetch_and_discard with src = dst = s%d" src;
      if not st.resident.(src) then error "Fetch_and_discard from s%d which holds no copy" src;
      record_transfer st src dst
  | Policy.Upload ->
      let dst = serving () in
      record_upload st dst;
      add_copy st dst
  | Policy.Upload_and_discard ->
      let dst = serving () in
      record_upload st dst
  | Policy.Provision { src; dst } ->
      if src = dst then error "Provision with src = dst = s%d" src;
      if not st.resident.(src) then error "Provision from s%d which holds no copy" src;
      record_transfer st src dst;
      add_copy st dst
  | Policy.Drop server -> remove_copy st server
  | Policy.Set_timer { server; at } ->
      if at < st.now then error "timer armed in the past (%g < %g)" at st.now;
      st.timer_stamp <- st.timer_stamp + 1;
      Dcache_prelude.Pqueue.push st.timers (at, st.timer_stamp, server)

let run ?costs (module P : Policy.POLICY) model seq =
  Obs.spanned sp_run @@ fun () ->
  let costs = match costs with Some c -> c | None -> homogeneous model in
  let m = Sequence.m seq and n = Sequence.n seq in
  let st =
    {
      costs;
      resident = Array.make m false;
      since = Array.make m 0.0;
      live = 0;
      now = 0.0;
      caching = 0.0;
      transfer = 0.0;
      upload = 0.0;
      num_transfers = 0;
      num_uploads = 0;
      hits = 0;
      misses = 0;
      peak = 0;
      copy_time = 0.0;
      last_integration = 0.0;
      caches = [];
      transfers = [];
      timers = Dcache_prelude.Pqueue.create ~cmp:compare;
      timer_stamp = 0;
    }
  in
  add_copy st 0;
  let policy = P.create model seq in
  let apply_all ~request_server actions =
    let served = ref false in
    List.iter (apply st ~request_server ~served) actions;
    (match request_server with
    | Some s when not !served ->
        error "policy failed to serve the request on s%d at %g" s st.now
    | Some _ | None -> ());
    if st.live < 1 then error "no copy resident anywhere at %g" st.now
  in
  apply_all ~request_server:None (P.init policy (view st));
  (* deliver timers strictly before [limit]; ties in time fire in
     arming order *)
  let rec deliver_timers limit =
    match Dcache_prelude.Pqueue.peek st.timers with
    | Some (at, _, server) when at < limit ->
        ignore (Dcache_prelude.Pqueue.pop st.timers);
        integrate st at;
        st.now <- at;
        apply_all ~request_server:None (P.on_timer policy (view st) ~server);
        deliver_timers limit
    | Some _ | None -> ()
  in
  for i = 1 to n do
    let server = Sequence.server seq i and time = Sequence.time seq i in
    deliver_timers time;
    integrate st time;
    st.now <- time;
    let hit = st.resident.(server) in
    if hit then st.hits <- st.hits + 1 else st.misses <- st.misses + 1;
    apply_all ~request_server:(Some server) (P.on_request policy (view st) ~index:i ~server)
  done;
  (* close the books at the horizon *)
  let horizon = Sequence.horizon seq in
  integrate st horizon;
  st.now <- horizon;
  for s = 0 to m - 1 do
    if st.resident.(s) then remove_copy st s
  done;
  if Obs.probe () then begin
    Obs.add c_hits st.hits;
    Obs.add c_misses st.misses;
    Obs.add c_transfers st.num_transfers;
    Obs.add c_uploads st.num_uploads;
    Obs.add c_evictions (List.length st.caches);
    Obs.add (Obs.counter_with_label v_policy_hits P.name) st.hits;
    Obs.add (Obs.counter_with_label v_policy_misses P.name) st.misses;
    Obs.add (Obs.counter_with_label v_policy_transfers P.name) st.num_transfers
  end;
  let metrics =
    {
      Metrics.caching_cost = st.caching;
      transfer_cost = st.transfer;
      upload_cost = st.upload;
      total_cost = st.caching +. st.transfer +. st.upload;
      num_transfers = st.num_transfers;
      num_uploads = st.num_uploads;
      cache_hits = st.hits;
      cache_misses = st.misses;
      peak_copies = st.peak;
      copy_time = st.copy_time;
    }
  in
  { metrics; schedule = Schedule.make ~caches:st.caches ~transfers:st.transfers }
