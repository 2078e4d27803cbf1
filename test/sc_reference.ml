(* The Speculative Caching implementation that the allocation-free
   Online_sc replaced, kept as the reference the differential tests
   compare it against: the expiry queue is the generic tuple heap
   ([Pqueue] under [compare] on (time, server) pairs), every event and
   every closed copy segment is built as it happens, and the
   accumulators are plain mutable float fields.  Telemetry is left
   out; the types are Online_sc's, so results compare with [=]. *)

open Dcache_core
module Pq = Dcache_prelude.Pqueue

type serve_kind = Online_sc.serve_kind = By_cache | By_transfer of int

type event = Online_sc.event =
  | Served of { index : int; server : int; time : float; kind : serve_kind }
  | Expired of { server : int; time : float }
  | Extended of { server : int; time : float; new_expiry : float }
  | Epoch_reset of { time : float; kept : int }

type segment = Online_sc.segment = {
  seg_server : int;
  activated : float;
  deactivated : float;
  by_transfer : bool;
  tail : float;
}

type state = {
  delta_t : float;
  window_for : server:int -> time:float -> float;
  mu : float;
  active : bool array;
  expiry : float array;
  activated : float array;
  last_use : float array;
  stamp : int array;
  from_transfer : bool array;
  queue : (float * int) Pq.t;
  mutable live : int;
  mutable act_sum : float;
  mutable next_stamp : int;
  mutable caching : float;
  mutable segments : segment list;
  mutable events : event list;
  record : bool;
}

let log st e = if st.record then st.events <- e :: st.events

let refresh st server time =
  st.expiry.(server) <- time +. st.window_for ~server ~time;
  st.last_use.(server) <- time;
  st.stamp.(server) <- st.next_stamp;
  st.next_stamp <- st.next_stamp + 1;
  Pq.push st.queue (st.expiry.(server), server)

let activate st server time ~by_transfer =
  st.active.(server) <- true;
  st.activated.(server) <- time;
  st.from_transfer.(server) <- by_transfer;
  st.live <- st.live + 1;
  st.act_sum <- st.act_sum +. time;
  refresh st server time

let deactivate st server time =
  st.active.(server) <- false;
  st.live <- st.live - 1;
  st.act_sum <- st.act_sum -. st.activated.(server);
  st.caching <- st.caching +. (st.mu *. (time -. st.activated.(server)));
  st.segments <-
    {
      seg_server = server;
      activated = st.activated.(server);
      deactivated = time;
      by_transfer = st.from_transfer.(server);
      tail = time -. st.last_use.(server);
    }
    :: st.segments

let valid st time server = st.active.(server) && st.expiry.(server) = time

(* process expirations strictly before [limit] *)
let rec drain st limit =
  match Pq.peek st.queue with
  | Some (time, server) when time < limit ->
      ignore (Pq.pop st.queue);
      if valid st time server then begin
        (* a simultaneous valid partner can only be the other half of a
           source/target pair refreshed by one transfer; -1 = none *)
        let partner =
          match Pq.peek st.queue with
          | Some (t, other) when t = time && other <> server && valid st time other ->
              ignore (Pq.pop st.queue);
              other
          | _ -> -1
        in
        if partner >= 0 then begin
          let other = partner in
          if st.live > 2 then begin
            deactivate st server time;
            deactivate st other time;
            log st (Expired { server; time });
            log st (Expired { server = other; time })
          end
          else begin
            (* the last two copies: drop the source, keep the target *)
            let source, target =
              if st.stamp.(server) > st.stamp.(other) then (other, server) else (server, other)
            in
            deactivate st source time;
            log st (Expired { server = source; time });
            st.expiry.(target) <- time +. st.delta_t;
            Pq.push st.queue (st.expiry.(target), target);
            log st (Extended { server = target; time; new_expiry = st.expiry.(target) })
          end
        end
        else if st.live > 1 then begin
          deactivate st server time;
          log st (Expired { server; time })
        end
        else begin
          (* last copy anywhere: extend, collapsing consecutive
             extensions across an idle gap into one jump *)
          let gaps = Float.ceil ((limit -. time) /. st.delta_t) in
          let gaps = Float.max gaps 1.0 in
          st.expiry.(server) <- time +. (gaps *. st.delta_t);
          Pq.push st.queue (st.expiry.(server), server);
          log st (Extended { server; time; new_expiry = st.expiry.(server) })
        end
      end;
      drain st limit
  | _ -> ()

let rec most_recent_live st m k best =
  if k >= m then best
  else if st.active.(k) && (best < 0 || st.stamp.(k) > st.stamp.(best)) then
    most_recent_live st m (k + 1) k
  else most_recent_live st m (k + 1) best

module Incremental = struct
  type nonrec t = {
    st : state;
    model : Cost_model.t;
    m : int;
    epoch_size : int;
    mutable n : int;
    mutable last_time : float;
    mutable num_transfers : int;
    mutable epoch_transfers : int;
    mutable num_epochs : int;
    mutable last_copy_server : int;
    mutable serves : int array;
    mutable finished : bool;
  }

  let create ?(epoch_size = max_int) ?(record_events = false) ?window ?window_policy model ~m =
    if epoch_size < 1 then invalid_arg "Online_sc: epoch_size must be positive";
    if m < 1 then invalid_arg "Online_sc: m must be positive";
    let delta_t =
      match window with
      | None -> Cost_model.delta_t model
      | Some w ->
          if not (w > 0.) then invalid_arg "Online_sc: window must be positive";
          w
    in
    let window_for =
      match window_policy with
      | None -> fun ~server:_ ~time:_ -> delta_t
      | Some f ->
          fun ~server ~time ->
            let w = f ~server ~time in
            if not (w > 0.) then invalid_arg "Online_sc: window_policy must be positive";
            w
    in
    let st =
      {
        delta_t;
        window_for;
        mu = model.Cost_model.mu;
        active = Array.make m false;
        expiry = Array.make m 0.0;
        activated = Array.make m 0.0;
        last_use = Array.make m 0.0;
        stamp = Array.make m 0;
        from_transfer = Array.make m false;
        queue = Pq.create ~cmp:compare;
        live = 0;
        act_sum = 0.0;
        next_stamp = 1;
        caching = 0.0;
        segments = [];
        events = [];
        record = record_events;
      }
    in
    activate st 0 0.0 ~by_transfer:false;
    {
      st;
      model;
      m;
      epoch_size;
      n = 0;
      last_time = 0.0;
      num_transfers = 0;
      epoch_transfers = 0;
      num_epochs = 0;
      last_copy_server = 0;
      serves = Array.make 16 (-1);
      finished = false;
    }

  let cost_so_far t =
    let st = t.st in
    let caching = st.caching +. (st.mu *. ((float_of_int st.live *. t.last_time) -. st.act_sum)) in
    Cost_model.add t.model ~caching ~transfers:t.num_transfers

  let feed t ~server ~time =
    if t.finished then invalid_arg "Online_sc.Incremental.feed: state already finished";
    if server < 0 || server >= t.m then invalid_arg "Online_sc.Incremental.feed: server out of range";
    if not (time > t.last_time) then
      invalid_arg "Online_sc.Incremental.feed: times must be strictly increasing";
    let st = t.st in
    let j = server and ti = time in
    drain st ti;
    let i = t.n + 1 in
    if i >= Array.length t.serves then begin
      let grown = Array.make (2 * Array.length t.serves) (-1) in
      Array.blit t.serves 0 grown 0 (Array.length t.serves);
      t.serves <- grown
    end;
    if st.active.(j) && st.expiry.(j) >= ti then begin
      refresh st j ti;
      t.serves.(i) <- -1;
      log st (Served { index = i; server = j; time = ti; kind = By_cache })
    end
    else begin
      let src =
        if st.active.(t.last_copy_server) then t.last_copy_server
        else most_recent_live st t.m 0 (-1)
      in
      assert (src >= 0 && st.active.(src));
      t.num_transfers <- t.num_transfers + 1;
      t.epoch_transfers <- t.epoch_transfers + 1;
      refresh st src ti;
      activate st j ti ~by_transfer:true;
      t.serves.(i) <- src;
      log st (Served { index = i; server = j; time = ti; kind = By_transfer src })
    end;
    t.last_copy_server <- j;
    t.n <- i;
    t.last_time <- ti;
    if t.epoch_transfers >= t.epoch_size then begin
      for k = 0 to t.m - 1 do
        if k <> j && st.active.(k) then begin
          deactivate st k ti;
          log st (Expired { server = k; time = ti })
        end
      done;
      t.epoch_transfers <- 0;
      t.num_epochs <- t.num_epochs + 1;
      log st (Epoch_reset { time = ti; kept = j })
    end

  let finish ?horizon t : Online_sc.run =
    if t.finished then invalid_arg "Online_sc.Incremental.finish: state already finished";
    let horizon =
      match horizon with
      | None -> t.last_time
      | Some h ->
          if h < t.last_time then
            invalid_arg "Online_sc.Incremental.finish: horizon before the last request";
          h
    in
    t.finished <- true;
    let st = t.st in
    for k = 0 to t.m - 1 do
      if st.active.(k) then deactivate st k horizon
    done;
    let serves =
      Array.init (t.n + 1) (fun i ->
          if i = 0 then By_cache
          else
            match t.serves.(i) with
            | -1 -> By_cache
            | src -> By_transfer src)
    in
    {
      caching_cost = st.caching;
      transfer_cost = float_of_int t.num_transfers *. t.model.Cost_model.lambda;
      total_cost = Cost_model.add t.model ~caching:st.caching ~transfers:t.num_transfers;
      num_transfers = t.num_transfers;
      num_epochs = t.num_epochs + 1;
      serves;
      events = List.rev st.events;
      segments = List.rev st.segments;
    }
end

let run ?epoch_size ?record_events ?window ?window_policy model seq =
  let inc =
    Incremental.create ?epoch_size ?record_events ?window ?window_policy model ~m:(Sequence.m seq)
  in
  for i = 1 to Sequence.n seq do
    Incremental.feed inc ~server:(Sequence.server seq i) ~time:(Sequence.time seq i)
  done;
  Incremental.finish inc ~horizon:(Sequence.horizon seq)
