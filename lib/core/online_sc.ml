module Obs = Dcache_obs.Obs

(* registered once; probed in bulk at end-of-run so the request loop
   pays nothing for them *)
let c_serves = Obs.counter "online_sc.serves"
let c_transfers = Obs.counter "online_sc.transfers"
let c_evictions = Obs.counter "online_sc.evictions"
let c_epoch_resets = Obs.counter "online_sc.epoch_resets"

let sp_run = Obs.span_name "online_sc.run"

type serve_kind = By_cache | By_transfer of int

type event =
  | Served of { index : int; server : int; time : float; kind : serve_kind }
  | Expired of { server : int; time : float }
  | Extended of { server : int; time : float; new_expiry : float }
  | Epoch_reset of { time : float; kept : int }

type segment = {
  seg_server : int;
  activated : float;
  deactivated : float;
  by_transfer : bool;
  tail : float;
}

type run = {
  caching_cost : float;
  transfer_cost : float;
  total_cost : float;
  num_transfers : int;
  num_epochs : int;
  serves : serve_kind array;
  events : event list;
  segments : segment list;
}

let competitive_bound = 3.0

(* The request path allocates nothing beyond the expiry heap's
   amortised doubling: the incremental state keeps only the last
   request's serve, and [run] writes each one into its exact-size
   [serves] as it feeds.  dune's dev profile compiles with
   [-opaque], so nothing is inlined across modules: every float handed
   to or returned by a function of another module is boxed, and so is
   every store into a float field of a mixed record.  Within this
   module a float argument is boxed too, unless the caller's float
   was boxed already.  Hence the expiry heap is two columns driven by
   int-only helpers, the running sums live in a [float array], close
   times travel through [expiry], the request's time reaches [drain],
   [refresh] and [activate] through the one-cell [now], and events
   and segments are built only under [record].  [run] reads the
   sequence's time column in place and runs [Incremental.feed]
   inlined, so its loop boxes no time at all. *)
type state = {
  delta_t : float;  (* base window: the last-copy extension quantum *)
  window_policy : (server:int -> time:float -> float) option;
      (* per-refresh window; [delta_t] when [None] *)
  mu : float;
  now : float array;
      (* one cell: the time of the request being served, and between
         feeds the last request's time (0 before the first) *)
  active : bool array;
  expiry : float array;  (* also the close time [deactivate] reads *)
  activated : float array;  (* activation time of the live copy *)
  last_use : float array;  (* last serve/refresh time of the live copy *)
  stamp : int array;  (* refresh recency, for the source/target tie-break *)
  from_transfer : bool array;
  (* expiration events: a binary min-heap on (time, server), the order
     of [compare] on those pairs for the finite times fed here *)
  mutable heap_time : float array;
  mutable heap_server : int array;
  mutable heap_size : int;
  sums : float array;  (* [caching] and [act_sum], unboxed *)
  mutable live : int;  (* the paper's counter c *)
  mutable next_stamp : int;
  mutable closed : int;  (* copy lifetimes closed so far, recorded or not *)
  mutable segments : segment list;
  mutable events : event list;
  record : bool;
}

(* indices into [sums]: closed-segment caching cost, and the sum of
   activation times over the live copies *)
let caching = 0
let act_sum = 1

let log st e = st.events <- e :: st.events

let before st i j =
  let ti = st.heap_time.(i) and tj = st.heap_time.(j) in
  ti < tj || (ti = tj && st.heap_server.(i) < st.heap_server.(j))

let swap st i j =
  let time = st.heap_time.(i) and server = st.heap_server.(i) in
  st.heap_time.(i) <- st.heap_time.(j);
  st.heap_server.(i) <- st.heap_server.(j);
  st.heap_time.(j) <- time;
  st.heap_server.(j) <- server

let rec sift_up st i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if before st i parent then begin
      swap st i parent;
      sift_up st parent
    end
  end

let rec sift_down st i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = if l < st.heap_size && before st l i then l else i in
  let smallest = if r < st.heap_size && before st r smallest then r else smallest in
  if smallest <> i then begin
    swap st i smallest;
    sift_down st smallest
  end

(* enqueue [server]'s current expiry; the columns grow by doubling *)
let push_expiry st server =
  if st.heap_size = Array.length st.heap_time then begin
    let capacity = max 8 (2 * st.heap_size) in
    let times = Array.make capacity 0.0 and servers = Array.make capacity 0 in
    Array.blit st.heap_time 0 times 0 st.heap_size;
    Array.blit st.heap_server 0 servers 0 st.heap_size;
    st.heap_time <- times;
    st.heap_server <- servers
  end;
  st.heap_time.(st.heap_size) <- st.expiry.(server);
  st.heap_server.(st.heap_size) <- server;
  st.heap_size <- st.heap_size + 1;
  sift_up st (st.heap_size - 1)

let drop_min st =
  st.heap_size <- st.heap_size - 1;
  if st.heap_size > 0 then begin
    st.heap_time.(0) <- st.heap_time.(st.heap_size);
    st.heap_server.(0) <- st.heap_server.(st.heap_size);
    sift_down st 0
  end

(* renews [server]'s copy at the time in [now] *)
let refresh st server =
  let time = st.now.(0) in
  let window =
    match st.window_policy with
    | None -> st.delta_t
    | Some f ->
        let w = f ~server ~time in
        if not (w > 0.) then invalid_arg "Online_sc: window_policy must be positive";
        w
  in
  st.expiry.(server) <- time +. window;
  st.last_use.(server) <- time;
  st.stamp.(server) <- st.next_stamp;
  st.next_stamp <- st.next_stamp + 1;
  push_expiry st server

(* [act_sum] tracks the sum of activation times over the currently
   live copies, so the caching cost accrued up to any instant [t] is
   [caching + mu * (live * t - act_sum)] — the O(1) readback behind
   [Incremental.cost_so_far].  Activation and deactivation are the
   only places a copy enters or leaves the live set.  The copy opens
   at the time in [now]. *)
let activate st server ~by_transfer =
  let time = st.now.(0) in
  st.active.(server) <- true;
  st.activated.(server) <- time;
  st.from_transfer.(server) <- by_transfer;
  st.live <- st.live + 1;
  st.sums.(act_sum) <- st.sums.(act_sum) +. time;
  refresh st server

(* Takes [server]'s copy out of the live set at [expiry.(server)],
   which the caller sets to the close time. *)
let deactivate st server =
  st.active.(server) <- false;
  st.live <- st.live - 1;
  st.sums.(act_sum) <- st.sums.(act_sum) -. st.activated.(server);
  st.sums.(caching) <-
    st.sums.(caching) +. (st.mu *. (st.expiry.(server) -. st.activated.(server)));
  st.closed <- st.closed + 1

(* the lifetime of [server]'s copy as it closes, for [record] *)
let record_segment st server =
  let close = st.expiry.(server) in
  st.segments <-
    {
      seg_server = server;
      activated = st.activated.(server);
      deactivated = close;
      by_transfer = st.from_transfer.(server);
      tail = close -. st.last_use.(server);
    }
    :: st.segments

let retire st server =
  if st.record then record_segment st server;
  deactivate st server

(* Process expirations strictly before the time in [now], reading the
   heap minimum in place.  A heap entry is current iff its copy is
   live and still expires at the entry's time; stale entries are
   dropped. *)
let rec drain st =
  let limit = st.now.(0) in
  if st.heap_size > 0 && st.heap_time.(0) < limit then begin
    let time = st.heap_time.(0) and server = st.heap_server.(0) in
    drop_min st;
    if st.active.(server) && st.expiry.(server) = time then begin
      (* a simultaneous current partner can only be the other half of
         a source/target pair refreshed by one transfer; -1 = none *)
      let partner =
        if st.heap_size > 0 && st.heap_time.(0) = time then begin
          let other = st.heap_server.(0) in
          if other <> server && st.active.(other) && st.expiry.(other) = time then begin
            drop_min st;
            other
          end
          else -1
        end
        else -1
      in
      if partner >= 0 then begin
        let other = partner in
        if st.live > 2 then begin
          retire st server;
          retire st other;
          if st.record then begin
            log st (Expired { server; time });
            log st (Expired { server = other; time })
          end
        end
        else begin
          (* the last two copies: drop the source, keep the target *)
          let source = if st.stamp.(server) > st.stamp.(other) then other else server in
          let target = if source = server then other else server in
          retire st source;
          st.expiry.(target) <- time +. st.delta_t;
          push_expiry st target;
          if st.record then begin
            log st (Expired { server = source; time });
            log st (Extended { server = target; time; new_expiry = st.expiry.(target) })
          end
        end
      end
      else if st.live > 1 then begin
        retire st server;
        if st.record then log st (Expired { server; time })
      end
      else begin
        (* last copy anywhere: extend.  Consecutive extensions
           across an idle gap collapse into one jump of
           ceil((limit - t) / delta_t) windows, at least one — no
           observable difference, since nothing else can happen while
           a single copy idles.  (The quotient is positive: the [if]
           is [Float.max gaps 1.0] without a boxing call.) *)
        let gaps = Float.ceil ((limit -. time) /. st.delta_t) in
        let gaps = if gaps < 1.0 then 1.0 else gaps in
        st.expiry.(server) <- time +. (gaps *. st.delta_t);
        push_expiry st server;
        if st.record then log st (Extended { server; time; new_expiry = st.expiry.(server) })
      end
    end;
    drain st
  end

(* the segments and events of an epoch reset at [time], before its
   copies close *)
let record_reset st ~m ~kept time =
  for k = 0 to m - 1 do
    if k <> kept && st.active.(k) then begin
      st.expiry.(k) <- time;
      record_segment st k;
      log st (Expired { server = k; time })
    end
  done;
  log st (Epoch_reset { time; kept })

(* most recently refreshed live copy, tail-recursively — the hot loop
   calls this on the rare fallback path, so it must not close over
   anything *)
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
    mutable n : int;  (* requests fed so far; the last one's time is [st.now] *)
    mutable num_transfers : int;
    mutable epoch_transfers : int;
    mutable num_epochs : int;  (* completed epoch resets *)
    mutable last_copy_server : int;
    mutable served : int;
        (* the last request's serve: its source server, or -1 for a
           cache serve; [run] reads it after each feed *)
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
    let st =
      {
        delta_t;
        window_policy;
        mu = model.Cost_model.mu;
        now = Array.make 1 0.0;
        active = Array.make m false;
        expiry = Array.make m 0.0;
        activated = Array.make m 0.0;
        last_use = Array.make m 0.0;
        stamp = Array.make m 0;
        from_transfer = Array.make m false;
        heap_time = [||];
        heap_server = [||];
        heap_size = 0;
        sums = Array.make 2 0.0;
        live = 0;
        next_stamp = 1;
        closed = 0;
        segments = [];
        events = [];
        record = record_events;
      }
    in
    activate st 0 ~by_transfer:false;
    {
      st;
      model;
      m;
      epoch_size;
      n = 0;
      num_transfers = 0;
      epoch_transfers = 0;
      num_epochs = 0;
      last_copy_server = 0;
      served = -1;
      finished = false;
    }

  let n t = t.n
  let transfers_so_far t = t.num_transfers

  (* O(1): the closed-segment cost lives in [sums.(caching)]; the
     still-open segments contribute mu * (live * now - act_sum).  The
     sum is [Cost_model.add]'s, written out: calling it would box its
     [caching] argument on every request.  The one formula behind
     [cost_so_far], which returns it boxed, and [cost_into], which
     stores it unboxed. *)
  let[@inline] cost t =
    let st = t.st in
    let caching =
      st.sums.(caching) +. (st.mu *. ((float_of_int st.live *. st.now.(0)) -. st.sums.(act_sum)))
    in
    caching +. (float_of_int t.num_transfers *. t.model.Cost_model.lambda)

  let cost_so_far t = cost t
  let cost_into t cells k = cells.(k) <- cost t

  (* [@inline] so that [run] runs this body on an unboxed read of the
     time column; other modules call the out-of-line copy.  The time
     goes into [now] before [drain], the first reader.  Closure mode
     inlines only a body with no local function. *)
  let[@inline] feed t ~server ~time =
    if t.finished then invalid_arg "Online_sc.Incremental.feed: state already finished";
    if server < 0 || server >= t.m then invalid_arg "Online_sc.Incremental.feed: server out of range";
    if not (Float.is_finite time) then
      invalid_arg "Online_sc.Incremental.feed: time must be finite";
    let st = t.st in
    if not (time > st.now.(0)) then
      invalid_arg "Online_sc.Incremental.feed: times must be strictly increasing";
    let j = server and ti = time in
    st.now.(0) <- ti;
    drain st;
    let i = t.n + 1 in
    if st.active.(j) && st.expiry.(j) >= ti then begin
      (* live local copy: serve from cache and renew its window *)
      refresh st j;
      t.served <- -1;
      if st.record then log st (Served { index = i; server = j; time = ti; kind = By_cache })
    end
    else begin
      (* Transfer from the most recent copy.  Under the paper's
         constant window it is always alive; a variable window_policy
         can outlive it elsewhere, so fall back to the most recently
         refreshed live copy (one always exists: the last copy is
         never dropped). *)
      let src =
        if st.active.(t.last_copy_server) then t.last_copy_server
        else most_recent_live st t.m 0 (-1)
      in
      assert (src >= 0 && st.active.(src));
      t.num_transfers <- t.num_transfers + 1;
      t.epoch_transfers <- t.epoch_transfers + 1;
      refresh st src;
      activate st j ~by_transfer:true;
      t.served <- src;
      if st.record then
        log st (Served { index = i; server = j; time = ti; kind = By_transfer src })
    end;
    t.last_copy_server <- j;
    t.n <- i;
    if t.epoch_transfers >= t.epoch_size then begin
      (* every copy but the current server's closes now; the record,
         if kept, is written first so this loop stays allocation-free *)
      if st.record then record_reset st ~m:t.m ~kept:j ti;
      for k = 0 to t.m - 1 do
        if k <> j && st.active.(k) then begin
          st.expiry.(k) <- ti;
          deactivate st k
        end
      done;
      t.epoch_transfers <- 0;
      t.num_epochs <- t.num_epochs + 1
    end
  [@@hot]

  let finish ?horizon t =
    if t.finished then invalid_arg "Online_sc.Incremental.finish: state already finished";
    let last_time = t.st.now.(0) in
    let horizon =
      match horizon with
      | None -> last_time
      | Some h ->
          if h < last_time then
            invalid_arg "Online_sc.Incremental.finish: horizon before the last request";
          h
    in
    t.finished <- true;
    let st = t.st in
    (* truncate surviving copies at the horizon *)
    for k = 0 to t.m - 1 do
      if st.active.(k) then begin
        st.expiry.(k) <- horizon;
        retire st k
      end
    done;
    (* bulk counter flush: one probe for the whole run, nothing in the
       request loop (evictions = closed cache segments) *)
    if Obs.probe () then begin
      Obs.add c_serves t.n;
      Obs.add c_transfers t.num_transfers;
      Obs.add c_epoch_resets t.num_epochs;
      Obs.add c_evictions st.closed
    end;
    (* transfers all cost lambda: count them and multiply once, instead
       of folding +. lambda per request (exact, and S4-clean) *)
    {
      caching_cost = st.sums.(caching);
      transfer_cost = float_of_int t.num_transfers *. t.model.Cost_model.lambda;
      total_cost = Cost_model.add t.model ~caching:st.sums.(caching) ~transfers:t.num_transfers;
      num_transfers = t.num_transfers;
      num_epochs = t.num_epochs + 1;
      serves = [||];
      events = List.rev st.events;
      segments = List.rev st.segments;
    }
end

let run ?epoch_size ?record_events ?window ?window_policy model seq =
  Obs.spanned sp_run @@ fun () ->
  let n = Sequence.n seq and m = Sequence.m seq in
  let inc = Incremental.create ?epoch_size ?record_events ?window ?window_policy model ~m in
  (* one shared [By_transfer s] per server *)
  let by_transfer = Array.init m (fun s -> By_transfer s) in
  let serves = Array.make (n + 1) By_cache in
  let servers = seq.Sequence.server and times = seq.Sequence.time in
  for k = 0 to n - 1 do
    Incremental.feed inc ~server:servers.(k) ~time:times.(k);
    let src = inc.Incremental.served in
    if src >= 0 then serves.(k + 1) <- by_transfer.(src)
  done;
  { (Incremental.finish inc ~horizon:(Sequence.horizon seq)) with serves }
[@@hot]

let schedule_of_run seq (run : run) =
  if List.is_empty run.segments then
    invalid_arg "Online_sc.schedule_of_run: the run kept no segments (pass ~record_events:true)";
  let caches =
    List.filter_map
      (fun s ->
        if s.deactivated > s.activated then
          Some { Schedule.server = s.seg_server; from_time = s.activated; to_time = s.deactivated }
        else None)
      run.segments
  in
  let transfers = ref [] in
  for i = 1 to Sequence.n seq do
    match run.serves.(i) with
    | By_cache -> ()
    | By_transfer src ->
        transfers :=
          {
            Schedule.src = Schedule.From_server src;
            dst = Sequence.server seq i;
            time = Sequence.time seq i;
          }
          :: !transfers
  done;
  Schedule.make ~caches ~transfers:!transfers
