(* Packed-arena layout: the per-request *index* columns live in int32
   bigarrays instead of ~13 parallel [int array]s — a stride-4 packed
   row [server; prev; c_choice; d_choice] per request in [idx], the
   successor column in [nxt], and the pre-scan matrix A in a row-major
   [cap * m] arena — while the float columns stay flat [float array]s
   (already unboxed).  Request indices always fit int32 (grow refuses
   past 2^30 rows), so the index state for a request is 16 bytes and a
   whole arena row is m*4 bytes: the pivot scan walks a quarter of the
   cache lines the old int-array layout touched.

   [nxt] is offset by one with a permanent [-1] sentinel in slot 0
   ([nxt.{i+1}] = successor of r_i), so the pivot scan needs no
   emptiness branch; and because [nxt.{q+1} <- i] is written only
   *after* the scan, every successor the scan reads is a strict
   predecessor of [i] — the scan body is a single [kappa >= 0] test.

   A push appends by copying the previous arena row with a manual
   int32 loop ([Array1.sub]/[blit] would allocate proxy blocks) and
   patching one column.  On this (non-flambda) toolchain the
   [Int32.to_int (Array1.unsafe_get ...)] / [unsafe_set ... (Int32.of_int ...)]
   pairs compile to unboxed loads/stores (Cmm box/unbox fusion), so
   the hot path still performs no per-request boxed allocation; the
   bench harness asserts the ~2 [Gc.minor_words]/push contract (see
   bench/bench_cases.ml and docs/PERFORMANCE.md).

   The float columns keep only what cannot be recomputed: [time],
   [big_b], [c] and [d].  sigma_i and b_i are recomputed bit for bit
   from [time] and the [prev] slot where they are read ([marginal_at]
   and the walk's transfer test).  [of_sequence] sizes every column
   from the sequence, so a batch solve never doubles one.

   [schedule] accumulates the walk into preallocated flat buffers
   (grown geometrically) that [Schedule.of_columns] sorts into the
   schedule's columns, so no piece becomes a record, a cons cell or a
   boxed float; it memoises the result keyed on [len]: the solver
   state is append-only, so the prefix length fully determines the
   schedule and repeated calls between pushes return the same
   physically-equal value without re-walking. *)

module Obs = Dcache_obs.Obs
module A1 = Bigarray.Array1

type i32 = (int32, Bigarray.int32_elt, Bigarray.c_layout) A1.t

let i32_make len fill : i32 =
  let a = A1.create Bigarray.int32 Bigarray.c_layout len in
  A1.fill a (Int32.of_int fill);
  a

(* Probe ids are registered once at module init; on the hot path the
   whole probe block sits behind a single [Obs.probe ()] load+branch,
   so the Noop-sink cost of a push is one call (tier-1 tests assert
   0 extra minor words; the perf gate bounds the time). *)
let c_push = Obs.counter "streaming_dp.push"
let c_grow = Obs.counter "streaming_dp.grow"
let c_pivot_slots = Obs.counter "streaming_dp.pivot_slots"
let c_sched_memo = Obs.counter "streaming_dp.schedule_memo"
let g_arena_cap = Obs.gauge "streaming_dp.arena_cap"
let sp_grow = Obs.span_name "streaming_dp.grow"
let sp_schedule = Obs.span_name "streaming_dp.schedule"
let sp_push = Obs.span_name "streaming_dp.push"

(* the choice for D(i) as an int32 slot: [d_undefined] / [d_prev] /
   a pivot index kappa >= 1 (kappa is a strict successor, never 0). *)
let d_undefined = -2

let d_prev = -1

(* the choice for C(i) as an int32 slot; 0 marks the boundary r_0 *)
let c_step = 1

let c_cache = 2

(* packed idx row: stride-4 int32 slots per request *)
let stride = 4

let k_server = 0

let k_prev = 1

let k_cc = 2

let k_dc = 3

type t = {
  model : Cost_model.t;
  m : int;
  lam_eff : float;
  mutable cap : int; (* rows allocated *)
  mutable len : int; (* rows used, = n + 1 with the boundary r_0 *)
  (* packed per-request index rows: idx.{i*4 ..} = [server; prev; c_choice; d_choice] *)
  mutable idx : i32;
  (* successor on the same server, offset by one: nxt.{i+1} = successor
     of r_i (-1 = none yet); nxt.{0} is a permanent -1 sentinel so an
     empty arena slot (-1) indexes it branch-free *)
  mutable nxt : i32;
  mutable arena : i32; (* row-major A: arena.{i*m + j} = last request on s^j after r_i *)
  (* per-request float columns, index 0 = the boundary request r_0 *)
  mutable time : float array;
  mutable big_b : float array;
  mutable c : float array;
  mutable d : float array;
  last_on : int array; (* latest request per server *)
  (* reconstruction memo: state is append-only, so [len] is a complete
     key for the schedule of the current prefix *)
  mutable sched_len : int;
  mutable sched : Schedule.t;
  (* preallocated walk buffers (caches: server/from/to; transfers:
     src/dst/time with src = -1 encoding From_external) *)
  mutable pb_cap : int;
  mutable pb_server : int array;
  mutable pb_from : float array;
  mutable pb_to : float array;
  mutable tb_src : int array;
  mutable tb_dst : int array;
  mutable tb_time : float array;
}

let initial_cap = 64

(* every index column stores request indices as int32; 2^30 rows is
   the guard line (far below Int32.max_int, far above any workload) *)
let max_cap = 0x4000_0000

(* [cap] rows: [create] starts small and grows, [of_sequence] knows
   the final size *)
let make model ~m ~cap =
  if m < 1 then invalid_arg "Streaming_dp.create: m must be at least 1";
  if cap > max_cap then invalid_arg "Streaming_dp: capacity exceeds int32 index range";
  let t =
    {
      model;
      m;
      lam_eff = Float.min model.Cost_model.lambda model.Cost_model.upload;
      cap;
      len = 0;
      idx = i32_make (cap * stride) 0;
      nxt = i32_make (cap + 1) (-1);
      arena = i32_make (cap * m) (-1);
      time = Array.make cap 0.0;
      big_b = Array.make cap 0.0;
      c = Array.make cap 0.0;
      d = Array.make cap infinity;
      last_on = Array.make m (-1);
      sched_len = 1;
      sched = Schedule.empty;
      pb_cap = 0;
      pb_server = [||];
      pb_from = [||];
      pb_to = [||];
      tb_src = [||];
      tb_dst = [||];
      tb_time = [||];
    }
  in
  (* boundary request r_0 = (s^1, 0); the fills already wrote the
     defaults (idx row 0: server 0, C choice 0), only the non-zero
     encodings need writing *)
  A1.set t.idx k_prev (-1l);
  A1.set t.idx k_dc (Int32.of_int d_undefined);
  t.last_on.(0) <- 0;
  A1.set t.arena 0 0l (* row 0: column 0 = r_0, the rest stay -1 *);
  t.len <- 1;
  t

let create model ~m = make model ~m ~cap:initial_cap

let n t = t.len - 1
let m t = t.m
let model t = t.model

(* decoded read of one packed idx slot; not used on the push hot path
   (there the unboxing pattern is written inline — without flambda a
   helper call is not guaranteed to fuse the int32 box away) *)
let ix t i k = Int32.to_int (A1.unsafe_get t.idx ((i * stride) + k))

let check t i name =
  if i < 0 || i >= t.len then invalid_arg ("Streaming_dp." ^ name ^ ": index out of bounds")

let cost t = t.c.(t.len - 1)

let cost_at t i =
  check t i "cost_at";
  t.c.(i)

let semi_cost_at t i =
  check t i "semi_cost_at";
  t.d.(i)

(* sigma_i and b_i exactly as [push] computed them *)
let marginal_at t i =
  check t i "marginal_at";
  if i = 0 then 0.0
  else
    let q = ix t i k_prev in
    let sigma = if q >= 0 then t.time.(i) -. t.time.(q) else infinity in
    Float.min t.lam_eff (t.model.Cost_model.mu *. sigma)

let running_at t i =
  check t i "running_at";
  t.big_b.(i)

let server_at t i =
  check t i "server_at";
  ix t i k_server

let time_at t i =
  check t i "time_at";
  t.time.(i)

let pivot_at t i =
  check t i "pivot_at";
  let v = ix t i k_dc in
  if v >= 0 then Some v else None

(* Doubles every column and the arena.  Not on the hot path proper:
   amortised over pushes, and the blocks it allocates are major-heap
   sized long before n is interesting.  The int32 copies are manual
   loops so no proxy blocks are created. *)
let grow t =
  Obs.spanned sp_grow @@ fun () ->
  let ncap = 2 * t.cap in
  if ncap > max_cap then invalid_arg "Streaming_dp: capacity exceeds int32 index range";
  let idx = i32_make (ncap * stride) 0 in
  for k = 0 to (t.len * stride) - 1 do
    A1.unsafe_set idx k (A1.unsafe_get t.idx k)
  done;
  let nxt = i32_make (ncap + 1) (-1) in
  for k = 0 to t.len do
    A1.unsafe_set nxt k (A1.unsafe_get t.nxt k)
  done;
  let arena = i32_make (ncap * t.m) (-1) in
  for k = 0 to (t.len * t.m) - 1 do
    A1.unsafe_set arena k (A1.unsafe_get t.arena k)
  done;
  t.idx <- idx;
  t.nxt <- nxt;
  t.arena <- arena;
  let grow_float a fill =
    let b = Array.make ncap fill in
    Array.blit a 0 b 0 t.len;
    b
  in
  t.time <- grow_float t.time 0.0;
  t.big_b <- grow_float t.big_b 0.0;
  t.c <- grow_float t.c 0.0;
  t.d <- grow_float t.d infinity;
  t.cap <- ncap;
  Obs.incr c_grow;
  Obs.set_gauge g_arena_cap (float_of_int (ncap * t.m))

let push t ~server ~time =
  (* hand-rolled span timing: [Obs.spanned] would allocate a closure,
     and this path's Noop budget is exactly 0 words.  Two probe loads
     per push (entry and exit) — bench_cases.probes_per_push. *)
  let t0 = if Obs.probe () then Obs.now_ns () else min_int in
  if server < 0 || server >= t.m then invalid_arg "Streaming_dp.push: server out of range";
  if not (Float.is_finite time) then invalid_arg "Streaming_dp.push: non-finite time";
  if time <= t.time.(t.len - 1) then
    invalid_arg "Streaming_dp.push: times must strictly increase";
  if t.len = t.cap then grow t;
  let mu = t.model.Cost_model.mu in
  let i = t.len in
  let q = t.last_on.(server) in
  let sigma = if q >= 0 then time -. t.time.(q) else infinity in
  let bi = Float.min t.lam_eff (mu *. sigma) in
  let base_i = i * stride in
  A1.unsafe_set t.idx (base_i + k_server) (Int32.of_int server);
  A1.unsafe_set t.idx (base_i + k_prev) (Int32.of_int q);
  A1.unsafe_set t.idx (base_i + k_dc) (Int32.of_int d_undefined);
  A1.unsafe_set t.nxt (i + 1) (-1l);
  t.time.(i) <- time;
  t.big_b.(i) <- t.big_b.(i - 1) +. bi;
  t.d.(i) <- infinity;
  (* --- D(i): branch-predictable pivot scan over the packed arena row
     of r_q.  The loop body is one test: an empty column reads the
     nxt.{0} sentinel, the server's own column reads nxt.{q+1} (still
     -1 — it is written only after the scan), and every stored
     successor is < i by construction, so the old [j <> server],
     [last >= 0], [kappa < i] and [d < infinity] guards are gone (an
     infinite D(kappa) yields an infinite candidate, which never beats
     the finite D_prev seed). *)
  if q >= 0 then begin
    let base = (mu *. sigma) +. t.big_b.(i - 1) in
    t.d.(i) <- t.c.(q) +. base -. t.big_b.(q);
    A1.unsafe_set t.idx (base_i + k_dc) (Int32.of_int d_prev);
    let row = q * t.m in
    for j = 0 to t.m - 1 do
      let last = Int32.to_int (A1.unsafe_get t.arena (row + j)) in
      let kappa = Int32.to_int (A1.unsafe_get t.nxt (last + 1)) in
      if kappa >= 0 then begin
        (* dcache-lint: allow R3 — kappa < i <= len: nxt only ever stores already-pushed indices *)
        let cand = Array.unsafe_get t.d kappa +. base -. Array.unsafe_get t.big_b kappa in
        (* dcache-lint: allow R3 — i < cap: grow ran above when len hit cap *)
        if cand < Array.unsafe_get t.d i then begin
          Array.unsafe_set t.d i cand;
          A1.unsafe_set t.idx (base_i + k_dc) (Int32.of_int kappa)
        end
      end
    done;
    A1.unsafe_set t.nxt (q + 1) (Int32.of_int i)
  end;
  let d_value = t.d.(i) in
  (* --- C(i) --- *)
  let step = t.c.(i - 1) +. (mu *. (time -. t.time.(i - 1))) +. t.lam_eff in
  (* D(i) exists only when the server was requested before; without
     the [q >= 0] test an overflowed [step = inf] would tie the
     undefined D(i) = inf and send the walk down a missing D branch *)
  if q >= 0 && d_value <= step then begin
    t.c.(i) <- d_value;
    A1.unsafe_set t.idx (base_i + k_cc) (Int32.of_int c_cache)
  end
  else begin
    t.c.(i) <- step;
    A1.unsafe_set t.idx (base_i + k_cc) (Int32.of_int c_step)
  end;
  t.last_on.(server) <- i;
  (* arena row i = arena row i-1 with this server's column patched;
     manual int32 loop — [Array1.sub]/[blit] would allocate proxies *)
  let src = (i - 1) * t.m and dst = i * t.m in
  for j = 0 to t.m - 1 do
    A1.unsafe_set t.arena (dst + j) (A1.unsafe_get t.arena (src + j))
  done;
  A1.unsafe_set t.arena (dst + server) (Int32.of_int i);
  t.len <- i + 1;
  (* one probe check per push; the counter math inside is a constant
     (the branch-free pivot scan visits all m columns whenever q >= 0) *)
  if Obs.probe () then begin
    Obs.incr c_push;
    Obs.add c_pivot_slots (if q >= 0 then t.m else 0);
    if t0 <> min_int then Obs.observe_span_ns sp_push (Obs.now_ns () - t0)
  end
[@@hot]

(* -- schedule reconstruction (identical walk to the batch solver) ------- *)

(* the walk emits at most one cache piece and one transfer piece per
   request index, so [len] slots per buffer always suffice *)
let ensure_path_cap t =
  if t.pb_cap < t.len then begin
    let ncap = max t.len (max initial_cap (2 * t.pb_cap)) in
    t.pb_server <- Array.make ncap 0;
    t.pb_from <- Array.make ncap 0.0;
    t.pb_to <- Array.make ncap 0.0;
    t.tb_src <- Array.make ncap 0;
    t.tb_dst <- Array.make ncap 0;
    t.tb_time <- Array.make ncap 0.0;
    t.pb_cap <- ncap
  end

let schedule t =
  if t.sched_len = t.len then begin
    Obs.incr c_sched_memo;
    t.sched
  end
  else
    Obs.spanned sp_schedule @@ fun () ->
    let mu = t.model.Cost_model.mu in
    ensure_path_cap t;
    let nc = ref 0 and nt = ref 0 in
    (* pieces are passed as request indices: a float passed to a
       closure would be boxed *)
    let add_cache server a b =
      if t.time.(b) > t.time.(a) then begin
        let k = !nc in
        t.pb_server.(k) <- server;
        t.pb_from.(k) <- t.time.(a);
        t.pb_to.(k) <- t.time.(b);
        nc := k + 1
      end
    in
    (* upload-vs-lambda is a property of the model, not of the walk
       step: decide the transfer source once, outside the loop *)
    let external_src = t.model.Cost_model.upload < t.model.Cost_model.lambda in
    let add_transfer src_server dst i =
      let k = !nt in
      t.tb_src.(k) <- (if external_src then -1 else src_server);
      t.tb_dst.(k) <- dst;
      t.tb_time.(k) <- t.time.(i);
      nt := k + 1
    in
    (* b_h = lambda_eff exactly when push found lambda_eff <= mu sigma_h;
       sigma_h is recomputed as push computed it (infinite without an
       earlier request on the server) *)
    let serve_marginal source lo hi =
      for h = lo to hi do
        let sh = ix t h k_server and ph = ix t h k_prev in
        if ph < 0 || t.lam_eff <= mu *. (t.time.(h) -. t.time.(ph)) then add_transfer source sh h
        else add_cache sh ph h
      done
    in
    (* the walk's state: it explains D(i) when [in_d], else C(i) *)
    let in_d = ref false and i = ref (n t) in
    while !in_d || !i > 0 do
      let cur = !i in
      let server = ix t cur k_server in
      if not !in_d then begin
        let cc = ix t cur k_cc in
        (* same-server step: the cache branch mathematically ties or
           wins; avoid a degenerate self-transfer *)
        if cc = c_cache || (cc = c_step && ix t (cur - 1) k_server = server) then in_d := true
        else begin
          assert (cc = c_step);
          let prev = cur - 1 in
          add_cache (ix t prev k_server) prev cur;
          add_transfer (ix t prev k_server) server cur;
          i := prev
        end
      end
      else begin
        let q = ix t cur k_prev and dc = ix t cur k_dc in
        assert (q >= 0);
        add_cache server q cur;
        if dc = d_prev then begin
          serve_marginal server (q + 1) (cur - 1);
          in_d := false;
          i := q
        end
        else begin
          assert (dc >= 0);
          serve_marginal server (dc + 1) (cur - 1);
          i := dc
        end
      end
    done;
    let s =
      Schedule.of_columns ~num_caches:!nc ~server:t.pb_server ~from_time:t.pb_from
        ~to_time:t.pb_to ~num_transfers:!nt ~src:t.tb_src ~dst:t.tb_dst ~time:t.tb_time
    in
    t.sched <- s;
    t.sched_len <- t.len;
    s

let of_sequence model seq =
  let count = Sequence.n seq in
  let t = make model ~m:(Sequence.m seq) ~cap:(count + 1) in
  for i = 1 to count do
    push t ~server:(Sequence.server seq i) ~time:(Sequence.time seq i)
  done;
  t
[@@hot]

let to_sequence t =
  let count = n t in
  match
    Sequence.of_columns ~m:t.m
      ~servers:(Array.init count (fun i -> ix t (i + 1) k_server))
      ~times:(Array.sub t.time 1 count)
  with
  | Ok seq -> seq
  | Error msg -> invalid_arg msg
