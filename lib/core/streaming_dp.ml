(* Packed-arena layout: the per-request *index* columns live in int32
   bigarrays instead of ~13 parallel [int array]s — a stride-4 packed
   row [server; prev; c_choice; d_choice] per request in [idx], the
   successor column in [nxt], and the pre-scan matrix A in a row-major
   arena of m slots per row — and the float columns in one stride-2
   [float array] of rows [D; B] (unboxed), with the times in a plane
   of their own.  Request indices always fit int32 (grow refuses past
   2^30 rows), so the index state for a request is 16 bytes and a
   whole arena row is m*4 bytes.

   Rows live in blocks ([rows]: the five planes of a run of rows, and
   the run's first row).  A stream starts with a 64-row block and
   appends blocks, each as large as the stream so far up to [block]
   rows: 64, 64, 128, ..., 2 048, then 4 096 rows each, so no row is
   ever copied and a stream of n rows holds at most max(2n, n + 4 096)
   of them.  Every block starts at a multiple of [page] rows and holds
   whole pages, so a row of a full block is found through a directory
   of 64-row pages: row r is in [pages.(r lsr page_bits)], at offset r
   minus the block's first row.  The directory doubles as it fills,
   copying only block pointers.  Rows from the current (last) block's
   first row on are in that block.  [of_sequence] knows n and keeps
   one exact-size block, which is the current block for every row, so
   the batch solve never reads the directory.  Blocks are not
   pre-filled: every row is written by its own push before anything
   reads it, and only row 0 and the nxt sentinel need initial values.

   A block's time plane holds row r's time at [tm.(r - toff)]: [toff]
   is the block's first row, or 1 for the first block, since row 0's
   time is the implicit 0.0 and is never stored.  [of_sequence]'s one
   block takes the sequence's time column as its plane, read in place
   and never written ([Sequence.of_columns] adopts its columns
   read-only), so a batch solve keeps no copy of the times.  Push
   reads no row's time: like C, the times it needs are those of
   r_{i-1} and r_{p(i)}, the latest request on its server, kept in
   [t_last] and [t_on].  The recurrence is one body, [step]; [push]
   is [step] and the store of the time into the current block's
   plane, and [of_sequence] runs [step] alone.  A borrowed plane
   pushed past its end is never written: growth appends a block with
   a plane of its own, or copies the block, times included.

   [nxt] is offset by one with a permanent [-1] sentinel in slot 0
   ([nxt] slot i+1 = successor of r_i), so the pivot scan needs no
   emptiness branch; and because slot q+1 <- i is written only *after*
   the scan, every successor the scan reads is a strict predecessor of
   [i] — the scan body is a single [kappa >= 0] test.  A block's nxt
   plane has one slot more than its rows: slot [cap] (the successor of
   the last row) sits there until the next block is appended, which
   takes it over as its slot 0.

   A push appends by copying the previous arena row with a manual
   int32 loop ([Array1.sub]/[blit] would allocate proxy blocks) and
   patching one column.  On this (non-flambda) toolchain the
   [Int32.to_int (Array1.unsafe_get ...)] / [unsafe_set ... (Int32.of_int ...)]
   pairs compile to unboxed loads/stores (Cmm box/unbox fusion), so
   the hot path still performs no per-request boxed allocation; the
   tier-1 test `streaming: push allocation budget` asserts the ~2
   [Gc.minor_words]/push contract (see docs/PERFORMANCE.md).

   The float rows keep only what cannot be recomputed: [D] and [B].
   sigma_i and b_i are recomputed bit for bit from the times and the
   [prev] slot where they are read ([marginal_at] and the walk's
   transfer test).  A push reads C only at r_{i-1} and at
   r_{p(i)}, and each is the latest request on its server, so C lives
   in the m-slot column [c_on] (C of each server's latest request)
   and in the one-cell [c_last] (C of the last request); [costs]
   recomputes the whole vector in one pass from the C choice slots.

   [schedule] records the walk in two per-request slot arrays and
   emits the schedule's columns from them already in order, so no
   piece becomes a record, a cons cell or a boxed float and nothing
   is sorted; it memoises the result keyed on [len]: the solver state
   is append-only, so the prefix length fully determines the schedule
   and repeated calls between pushes return the same physically-equal
   value without re-walking. *)

module Obs = Dcache_obs.Obs
module A1 = Bigarray.Array1

type i32 = (int32, Bigarray.int32_elt, Bigarray.c_layout) A1.t

(* not filled: see the layout note above *)
let i32_create len : i32 = A1.create Bigarray.int32 Bigarray.c_layout len

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

(* float row: stride-2 [D; B] per request *)
let fstride = 2

let f_d = 0

let f_b = 1

(* the largest block a stream appends *)
let block = 1 lsl 12

(* rows per directory page *)
let page_bits = 6

let page = 1 lsl page_bits

(* The planes of one block of rows [first, first + rows): row r's
   offset in it is o = r - first, and nxt slot s's is s - first *)
type rows = {
  first : int;
  idx : i32; (* idx.{o*4 + k} = [server; prev; c_choice; d_choice] *)
  nxt : i32; (* rows + 1 slots: the last is slot first + rows *)
  arena : i32; (* arena.{o*m + j} = last request on s^j after r *)
  fl : float array; (* fl.(o*2 + k) = [D; B] *)
  tm : float array; (* row r's time at tm.(r - toff), r > 0 *)
  toff : int; (* [first], or 1 in the first block *)
}

type t = {
  model : Cost_model.t;
  m : int;
  lam_eff : float;
  mutable cap : int; (* rows allocated over all blocks *)
  mutable len : int; (* rows used, = n + 1 with the boundary r_0 *)
  mutable cur : rows; (* the current block: rows [cur.first, cap) *)
  mutable pages : rows array; (* the full block holding each page's rows, by page *)
  last_on : int array; (* latest request per server *)
  c_on : float array; (* C of each server's latest request *)
  c_last : float array; (* one cell: C of the last request *)
  t_on : float array; (* the time of each server's latest request *)
  t_last : float array; (* one cell: the time of the last request *)
  (* reconstruction memo: state is append-only, so [len] is a complete
     key for the schedule of the current prefix *)
  mutable sched_len : int;
  mutable sched : Schedule.t;
}

let initial_cap = 64

(* every index column stores request indices as int32; 2^30 rows is
   the guard line (far below Int32.max_int, far above any workload) *)
let max_cap = 0x4000_0000

(* [tm]: the block's time plane, [n] slots, or [n - 1] in the first
   block, which stores no time for row 0 *)
let make_rows ~m ~first ~tm n =
  {
    first;
    idx = i32_create (n * stride);
    nxt = i32_create (n + 1);
    arena = i32_create (n * m);
    fl = Array.create_float (n * fstride);
    tm;
    toff = (if first = 0 then 1 else first);
  }

(* [cap] rows in one block: [create] starts small and grows,
   [of_sequence] knows the final size and lends its time column as
   [tm] *)
let make model ~m ~cap ~tm =
  if m < 1 then invalid_arg "Streaming_dp.create: m must be at least 1";
  if cap > max_cap then invalid_arg "Streaming_dp: capacity exceeds int32 index range";
  let cur = make_rows ~m ~first:0 ~tm cap in
  (* boundary request r_0 = (s^1, 0): C(0) = 0, no D(0), B_0 = 0, no
     successor yet; arena row 0 holds r_0 in column 0 and -1 elsewhere *)
  A1.set cur.idx k_server 0l;
  A1.set cur.idx k_prev (-1l);
  A1.set cur.idx k_cc 0l;
  A1.set cur.idx k_dc (Int32.of_int d_undefined);
  A1.set cur.nxt 0 (-1l);
  A1.set cur.nxt 1 (-1l);
  A1.set cur.arena 0 0l;
  for j = 1 to m - 1 do
    A1.set cur.arena j (-1l)
  done;
  cur.fl.(f_d) <- infinity;
  cur.fl.(f_b) <- 0.0;
  let last_on = Array.make m (-1) in
  last_on.(0) <- 0;
  {
    model;
    m;
    lam_eff = Float.min model.Cost_model.lambda model.Cost_model.upload;
    cap;
    len = 1;
    cur;
    pages = [||];
    last_on;
    c_on = Array.make m 0.0;
    c_last = Array.make 1 0.0;
    t_on = Array.make m 0.0;
    t_last = Array.make 1 0.0;
    sched_len = 1;
    sched = Schedule.empty;
  }

let create model ~m = make model ~m ~cap:initial_cap ~tm:(Array.create_float (initial_cap - 1))

let n t = t.len - 1

(* the block holding row (or nxt slot) [r >= 0]; [r]'s offset in it
   is [r - first] *)
let[@inline] rows_of t r = if r >= t.cur.first then t.cur else t.pages.(r lsr page_bits)

(* decoded read of one packed idx slot, and of one float slot; not
   used on the push hot path (there the unboxing pattern is written
   inline — without flambda a helper call is not guaranteed to fuse
   the int32 box away) *)
let ix t i k =
  let b = rows_of t i in
  Int32.to_int (A1.unsafe_get b.idx (((i - b.first) * stride) + k))

let[@inline] fx t i k =
  let b = rows_of t i in
  b.fl.(((i - b.first) * fstride) + k)

(* row [i]'s time, for every reader: [@inline], because a float
   returned from an out-of-line function is boxed *)
let[@inline] time_at t i =
  if i = 0 then 0.0
  else
    let b = rows_of t i in
    b.tm.(i - b.toff)

let check t i name =
  if i < 0 || i >= t.len then invalid_arg ("Streaming_dp." ^ name ^ ": index out of bounds")

let cost t = t.c_last.(0)
let cost_into t cells k = cells.(k) <- t.c_last.(0)

(* C(i) is D(i) where the cache branch won, else push's step from
   C(i - 1), the same expression so every value matches bit for bit *)
let costs t =
  let mu = t.model.Cost_model.mu in
  let c = Array.make t.len 0.0 in
  for i = 1 to t.len - 1 do
    c.(i) <-
      (if ix t i k_cc = c_cache then fx t i f_d
       else c.(i - 1) +. (mu *. (time_at t i -. time_at t (i - 1))) +. t.lam_eff)
  done;
  c

let semi_cost_at t i =
  check t i "semi_cost_at";
  fx t i f_d

(* sigma_i and b_i exactly as [push] computed them *)
let marginal_at t i =
  check t i "marginal_at";
  if i = 0 then 0.0
  else
    let q = ix t i k_prev in
    let sigma = if q >= 0 then time_at t i -. time_at t q else infinity in
    Float.min t.lam_eff (t.model.Cost_model.mu *. sigma)

let running_at t i =
  check t i "running_at";
  fx t i f_b

let pivot_at t i =
  check t i "pivot_at";
  let v = ix t i k_dc in
  if v >= 0 then Some v else None

(* Not on the hot path proper.  The current block is full: append the
   next, as large as the stream so far up to [block] rows, and enter
   the full block's pages in the directory (which doubles, copying
   only pointers), so no row is copied.  A block that does not hold
   whole pages can only be an [of_sequence] state's single block,
   pushed past its end: it is copied once, with manual int32 loops so
   no proxy blocks are created, into a block of twice its rows rounded
   up to whole pages, times included, and appends from there.  Either
   way the new current block has a time plane of its own, so a
   sequence's borrowed time column is only ever read. *)
let grow t =
  Obs.spanned sp_grow @@ fun () ->
  let src = t.cur in
  let ncap =
    if t.cap land (page - 1) = 0 then t.cap + min t.cap block
    else ((2 * t.cap) + page - 1) land lnot (page - 1)
  in
  if ncap > max_cap then invalid_arg "Streaming_dp: capacity exceeds int32 index range";
  if t.cap land (page - 1) = 0 then begin
    (* the pages of the full blocks, this one's last *)
    let filled = t.cap lsr page_bits in
    if filled > Array.length t.pages then begin
      let dir = Array.make (max filled (2 * Array.length t.pages)) src in
      Array.blit t.pages 0 dir 0 (src.first lsr page_bits);
      t.pages <- dir
    end;
    for p = src.first lsr page_bits to filled - 1 do
      t.pages.(p) <- src
    done;
    t.cur <- make_rows ~m:t.m ~first:t.cap ~tm:(Array.create_float (ncap - t.cap)) (ncap - t.cap);
    (* nxt slot [cap] moves from the full block's last slot to the new
       block's first *)
    A1.set t.cur.nxt 0 (A1.get src.nxt (t.cap - src.first))
  end
  else begin
    let dst = make_rows ~m:t.m ~first:0 ~tm:(Array.create_float (ncap - 1)) ncap in
    for k = 0 to (t.len * stride) - 1 do
      A1.unsafe_set dst.idx k (A1.unsafe_get src.idx k)
    done;
    for k = 0 to t.len do
      A1.unsafe_set dst.nxt k (A1.unsafe_get src.nxt k)
    done;
    for k = 0 to (t.len * t.m) - 1 do
      A1.unsafe_set dst.arena k (A1.unsafe_get src.arena k)
    done;
    Array.blit src.fl 0 dst.fl 0 (t.len * fstride);
    Array.blit src.tm 0 dst.tm 0 (t.len - 1);
    t.cur <- dst
  end;
  t.cap <- ncap;
  Obs.incr c_grow;
  Obs.set_gauge g_arena_cap (float_of_int (ncap * t.m))

(* The recurrence: every push but the store of its time.  [@inline],
   so that [of_sequence] runs this body on an unboxed read of the time
   column and [push] on its own [time]: the out-of-line [push] serves
   other modules, and boxes its [time] argument there.  Closure mode
   inlines only a body with no local function, so none may be added
   here. *)
let[@inline] step t ~server ~time =
  (* hand-rolled span timing: [Obs.spanned] would allocate a closure,
     and this path's Noop budget is exactly 0 words.  Two probe loads
     per push (entry and exit) — bench_cases.probes_per_push. *)
  let t0 = if Obs.probe () then Obs.now_ns () else min_int in
  if server < 0 || server >= t.m then invalid_arg "Streaming_dp.push: server out of range";
  if not (Float.is_finite time) then invalid_arg "Streaming_dp.push: non-finite time";
  (* [c_last], [c_on], [t_last] and [t_on] are read and written
     unchecked: with bounds checks on the first two the perf gate's
     push read 72-77 us, against 62-68 without them and on rows that
     kept C *)
  (* dcache-sema: allow R3 — [t_last] has its one cell *)
  let prev_time = Array.unsafe_get t.t_last 0 in
  if time <= prev_time then invalid_arg "Streaming_dp.push: times must strictly increase";
  (* row i - 1 is in the current block until [grow] runs *)
  let po = (t.len - 1 - t.cur.first) * fstride in
  (* dcache-sema: allow R3 — [c_last] has its one cell *)
  let prev_c = Array.unsafe_get t.c_last 0 and prev_b = t.cur.fl.(po + f_b) in
  if t.len = t.cap then grow t;
  let mu = t.model.Cost_model.mu in
  let i = t.len in
  let cur = t.cur and pages = t.pages in
  let base = cur.first in
  let fl = cur.fl and fo = (i - base) * fstride in
  let io = (i - base) * stride in
  let q = t.last_on.(server) in
  (* t_{p(i)}: q is the server's latest request until this push *)
  (* dcache-sema: allow R3 — 0 <= server < m, checked above, and [t_on] has m slots *)
  let sigma = if q >= 0 then time -. Array.unsafe_get t.t_on server else infinity in
  let bi = Float.min t.lam_eff (mu *. sigma) in
  A1.unsafe_set cur.idx (io + k_server) (Int32.of_int server);
  A1.unsafe_set cur.idx (io + k_prev) (Int32.of_int q);
  A1.unsafe_set cur.nxt (i + 1 - base) (-1l);
  fl.(fo + f_b) <- prev_b +. bi;
  (* --- D(i): branch-predictable pivot scan over the packed arena row
     of r_q.  The loop body is one test: an empty column reads the
     nxt slot-0 sentinel, the server's own column reads slot q+1
     (still -1 — it is written only after the scan), and every stored
     successor is < i by construction, so the old [j <> server],
     [last >= 0], [kappa < i] and [d < infinity] guards are gone (an
     infinite D(kappa) yields an infinite candidate, which never beats
     the finite D_prev seed).  Each row read takes the current block
     when the row is in it, as every row of a batch solve is.  The
     running minimum and its choice stay in local variables, unboxed,
     and row i's D and d_choice are written once, after the scan. *)
  let d_value =
    if q >= 0 then begin
      let base_cost = (mu *. sigma) +. prev_b in
      (* C(q): q is the server's latest request until this push *)
      (* dcache-sema: allow R3 — 0 <= server < m, checked above, and [c_on] has m slots *)
      let best = ref (Array.unsafe_get t.c_on server +. base_cost -. fx t q f_b)
      and choice = ref d_prev in
      let qb = rows_of t q in
      let arena = qb.arena and row = (q - qb.first) * t.m in
      for j = 0 to t.m - 1 do
        let s = Int32.to_int (A1.unsafe_get arena (row + j)) + 1 in
        let kappa =
          Int32.to_int
            (if s >= base then A1.unsafe_get cur.nxt (s - base)
             else
               let sb = pages.(s lsr page_bits) in
               A1.unsafe_get sb.nxt (s - sb.first))
        in
        if kappa >= 0 then begin
          let cand =
            if kappa >= base then
              let ko = (kappa - base) * fstride in
              (* dcache-sema: allow R3 — base <= kappa < i: a row pushed into this block *)
              Array.unsafe_get fl (ko + f_d) +. base_cost -. Array.unsafe_get fl (ko + f_b)
            else
              let kb = pages.(kappa lsr page_bits) in
              let kf = kb.fl and ko = (kappa - kb.first) * fstride in
              (* dcache-sema: allow R3 — kappa < base: full blocks hold all their rows *)
              Array.unsafe_get kf (ko + f_d) +. base_cost -. Array.unsafe_get kf (ko + f_b)
          in
          if cand < !best then begin
            best := cand;
            choice := kappa
          end
        end
      done;
      let nb = rows_of t (q + 1) in
      A1.unsafe_set nb.nxt (q + 1 - nb.first) (Int32.of_int i);
      A1.unsafe_set cur.idx (io + k_dc) (Int32.of_int !choice);
      !best
    end
    else begin
      A1.unsafe_set cur.idx (io + k_dc) (Int32.of_int d_undefined);
      infinity
    end
  in
  fl.(fo + f_d) <- d_value;
  (* --- C(i) --- *)
  let stepped = prev_c +. (mu *. (time -. prev_time)) +. t.lam_eff in
  (* D(i) exists only when the server was requested before; without
     the [q >= 0] test an overflowed [stepped = inf] would tie the
     undefined D(i) = inf and send the walk down a missing D branch *)
  if q >= 0 && d_value <= stepped then begin
    Array.unsafe_set t.c_last 0 d_value;
    A1.unsafe_set cur.idx (io + k_cc) (Int32.of_int c_cache)
  end
  else begin
    Array.unsafe_set t.c_last 0 stepped;
    A1.unsafe_set cur.idx (io + k_cc) (Int32.of_int c_step)
  end;
  (* dcache-sema: allow R3 — the same cell and slot as above *)
  Array.unsafe_set t.c_on server (Array.unsafe_get t.c_last 0);
  Array.unsafe_set t.t_on server time;
  Array.unsafe_set t.t_last 0 time;
  t.last_on.(server) <- i;
  (* arena row i = arena row i-1 with this server's column patched;
     manual int32 loop — [Array1.sub]/[blit] would allocate proxies *)
  let pb = rows_of t (i - 1) in
  let src = pb.arena and so = (i - 1 - pb.first) * t.m in
  let dst = (i - base) * t.m in
  for j = 0 to t.m - 1 do
    A1.unsafe_set cur.arena (dst + j) (A1.unsafe_get src (so + j))
  done;
  A1.unsafe_set cur.arena (dst + server) (Int32.of_int i);
  t.len <- i + 1;
  (* one probe check per push; the counter math inside is a constant
     (the branch-free pivot scan visits all m columns whenever q >= 0) *)
  if Obs.probe () then begin
    Obs.incr c_push;
    Obs.add c_pivot_slots (if q >= 0 then t.m else 0);
    if t0 <> min_int then Obs.observe_span_ns sp_push (Obs.now_ns () - t0)
  end
[@@hot]

(* [step], then the time into the current block's plane, which is the
   block's own: a pushed stream's blocks all have their own planes,
   and growth gives an [of_sequence] stream pushed past its end one *)
let[@inline] push t ~server ~time =
  step t ~server ~time;
  let cur = t.cur in
  cur.tm.(t.len - 1 - cur.toff) <- time
[@@hot]

(* -- schedule reconstruction (identical walk to the batch solver) ------- *)

(* The walk emits at most one cache piece ending at each request r_b,
   on the server of its start request, and at most one transfer at
   each request r_h, to s_h.  So it records them in two slot arrays:
   [start.(b)] is the start index of the piece ending at r_b and
   [source.(h)] the source of the transfer at r_h ([-1] an upload). *)
let no_piece = -1

let no_transfer = -2

(* The schedule's columns from the slots, already in order: transfers
   in request order, which is (time, dst) order because times strictly
   increase; caches counting-sorted on server and in request order
   within a server, which is (server, from, to) order because an
   optimal schedule's pieces on one server do not overlap. *)
let emit t start source =
  let first = Array.make (t.m + 1) 0 and nt = ref 0 in
  for b = 1 to t.len - 1 do
    let a = start.(b) in
    if a <> no_piece then begin
      let s = ix t a k_server in
      first.(s + 1) <- first.(s + 1) + 1
    end;
    if source.(b) <> no_transfer then incr nt
  done;
  (* [first.(s)]: the slot of server s's next piece *)
  for s = 1 to t.m do
    first.(s) <- first.(s) + first.(s - 1)
  done;
  let nc = first.(t.m) in
  let server = Array.make nc 0 and from_time = Array.make nc 0.0 and to_time = Array.make nc 0.0 in
  let src = Array.make !nt 0 and dst = Array.make !nt 0 and time = Array.make !nt 0.0 in
  let k = ref 0 in
  for b = 1 to t.len - 1 do
    let a = start.(b) in
    if a <> no_piece then begin
      let s = ix t a k_server in
      let slot = first.(s) in
      first.(s) <- slot + 1;
      server.(slot) <- s;
      from_time.(slot) <- time_at t a;
      to_time.(slot) <- time_at t b
    end;
    let source = source.(b) in
    if source <> no_transfer then begin
      src.(!k) <- source;
      dst.(!k) <- ix t b k_server;
      time.(!k) <- time_at t b;
      incr k
    end
  done;
  Schedule.of_sorted_columns ~server ~from_time ~to_time ~src ~dst ~time

let schedule t =
  if t.sched_len = t.len then begin
    Obs.incr c_sched_memo;
    t.sched
  end
  else
    Obs.spanned sp_schedule @@ fun () ->
    let mu = t.model.Cost_model.mu in
    let start = Array.make t.len no_piece and source = Array.make t.len no_transfer in
    (* each slot is written once: a second piece ending at one request
       would break the order [emit] relies on *)
    let add_cache a b =
      assert (start.(b) = no_piece);
      start.(b) <- a
    in
    (* upload-vs-lambda is a property of the model, not of the walk
       step: decide the transfer source once, outside the loop *)
    let external_src = t.model.Cost_model.upload < t.model.Cost_model.lambda in
    let add_transfer src_server h =
      assert (source.(h) = no_transfer);
      source.(h) <- (if external_src then -1 else src_server)
    in
    (* b_h = lambda_eff exactly when push found lambda_eff <= mu sigma_h;
       sigma_h is recomputed as push computed it (infinite without an
       earlier request on the server) *)
    let serve_marginal source lo hi =
      for h = lo to hi do
        let ph = ix t h k_prev in
        if ph < 0 || t.lam_eff <= mu *. (time_at t h -. time_at t ph) then add_transfer source h
        else add_cache ph h
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
          add_cache prev cur;
          add_transfer (ix t prev k_server) cur;
          i := prev
        end
      end
      else begin
        let q = ix t cur k_prev and dc = ix t cur k_dc in
        assert (q >= 0);
        add_cache q cur;
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
    let s = emit t start source in
    t.sched <- s;
    t.sched_len <- t.len;
    s

(* reads the columns in place and inlines [step], so no time is boxed;
   the time column is the block's plane (row r at [times.(r - 1)]), so
   nothing stores a time *)
let of_sequence model seq =
  let count = Sequence.n seq in
  let servers = seq.Sequence.server and times = seq.Sequence.time in
  let t = make model ~m:(Sequence.m seq) ~cap:(count + 1) ~tm:times in
  for k = 0 to count - 1 do
    step t ~server:servers.(k) ~time:times.(k)
  done;
  t
[@@hot]

let to_sequence t =
  let count = n t in
  let times = Array.make count 0.0 in
  for i = 1 to count do
    times.(i - 1) <- time_at t i
  done;
  match
    Sequence.of_columns ~m:t.m ~servers:(Array.init count (fun i -> ix t (i + 1) k_server)) ~times
  with
  | Ok seq -> seq
  | Error msg -> invalid_arg msg
