(* Unit and property tests for dcache_prelude: rng, stats, pqueue,
   float_cmp, table. *)

module Rng = Dcache_prelude.Rng
module Stats = Dcache_prelude.Stats
module Pqueue = Dcache_prelude.Pqueue
module Float_cmp = Dcache_prelude.Float_cmp
module Table = Dcache_prelude.Table
open Helpers

(* ------------------------------------------------------------------ rng *)

let rng_deterministic () =
  let a = Rng.create 123 and b = Rng.create 123 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let rng_seed_sensitivity () =
  let a = Rng.create 123 and b = Rng.create 124 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 a = Rng.bits64 b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let rng_copy_preserves_stream () =
  let a = Rng.create 5 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  for _ = 1 to 20 do
    Alcotest.(check int64) "copy tracks original" (Rng.bits64 a) (Rng.bits64 b)
  done

let rng_split_independence () =
  let parent = Rng.create 9 in
  let child = Rng.split parent in
  (* drawing more from the child must not change the parent's stream *)
  let parent_witness = Rng.copy parent in
  for _ = 1 to 50 do
    ignore (Rng.bits64 child)
  done;
  for _ = 1 to 20 do
    Alcotest.(check int64) "parent unaffected" (Rng.bits64 parent_witness) (Rng.bits64 parent)
  done

let rng_derive_stable () =
  (* a derived stream is a pure function of (parent state, index):
     repeated calls agree, and the first draw is pinned so the mapping
     stays stable across runs and releases — parallel sweeps keyed on
     [derive] indices depend on it *)
  let parent = Rng.create 11 in
  let a = Rng.derive parent 5 and b = Rng.derive parent 5 in
  for _ = 1 to 50 do
    Alcotest.(check int64) "same derived stream" (Rng.bits64 a) (Rng.bits64 b)
  done;
  Alcotest.(check int64) "pinned first draw" (-4002080129162122477L)
    (Rng.bits64 (Rng.derive parent 5))

let rng_derive_does_not_advance_parent () =
  let parent = Rng.create 11 in
  let witness = Rng.copy parent in
  for i = 0 to 20 do
    ignore (Rng.bits64 (Rng.derive parent i))
  done;
  for _ = 1 to 20 do
    Alcotest.(check int64) "parent unaffected" (Rng.bits64 witness) (Rng.bits64 parent)
  done

let rng_derive_independence () =
  (* distinct indices must give distinct streams (64-bit draws: a
     collision among 64 of them means the state mixing is broken), and
     the same index under different parents must differ too *)
  let parent = Rng.create 11 in
  let firsts = Array.init 64 (fun i -> Rng.bits64 (Rng.derive parent i)) in
  Array.sort Int64.compare firsts;
  for i = 1 to Array.length firsts - 1 do
    if Int64.equal firsts.(i) firsts.(i - 1) then Alcotest.fail "colliding derived streams"
  done;
  let other = Rng.create 12 in
  Alcotest.(check bool) "parent-sensitive" false
    (Int64.equal (Rng.bits64 (Rng.derive parent 3)) (Rng.bits64 (Rng.derive other 3)));
  Alcotest.check_raises "negative index" (Invalid_argument "Rng.derive: index must be non-negative")
    (fun () -> ignore (Rng.derive parent (-1)))

let rng_int_bounds () =
  let rng = Rng.create 7 in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 7 in
    if v < 0 || v >= 7 then Alcotest.failf "Rng.int out of bounds: %d" v
  done

let rng_int_covers_range () =
  let rng = Rng.create 3 in
  let seen = Array.make 5 false in
  for _ = 1 to 1000 do
    seen.(Rng.int rng 5) <- true
  done;
  Alcotest.(check bool) "all values seen" true (Array.for_all Fun.id seen)

let rng_int_in_bounds () =
  let rng = Rng.create 11 in
  for _ = 1 to 1000 do
    let v = Rng.int_in rng (-3) 3 in
    if v < -3 || v > 3 then Alcotest.failf "int_in out of bounds: %d" v
  done

let rng_float_bounds () =
  let rng = Rng.create 13 in
  for _ = 1 to 10_000 do
    let v = Rng.float rng 2.5 in
    if v < 0. || v >= 2.5 then Alcotest.failf "float out of bounds: %g" v
  done

let rng_float_mean () =
  let rng = Rng.create 17 in
  let acc = Stats.acc_create () in
  for _ = 1 to 20_000 do
    Stats.acc_add acc (Rng.float rng 1.0)
  done;
  check_float ~eps:0.02 "uniform mean ~ 0.5" 0.5 (Stats.mean acc)

let rng_exponential_mean () =
  let rng = Rng.create 19 in
  let acc = Stats.acc_create () in
  for _ = 1 to 50_000 do
    Stats.acc_add acc (Rng.exponential rng ~rate:2.0)
  done;
  check_float ~eps:0.03 "exponential mean ~ 1/rate" 0.5 (Stats.mean acc)

let rng_pareto_support () =
  let rng = Rng.create 23 in
  let draws = Array.make 5000 0.0 in
  Rng.fill_pareto rng ~shape:2.0 ~scale:1.5 draws;
  Array.iter (fun v -> if v < 1.5 then Alcotest.failf "pareto below scale: %g" v) draws

let rng_categorical_weights () =
  let rng = Rng.create 29 in
  let counts = Array.make 3 0 in
  let weights = Rng.weights [| 1.0; 0.0; 3.0 |] in
  for _ = 1 to 20_000 do
    let k = Rng.categorical rng weights in
    counts.(k) <- counts.(k) + 1
  done;
  Alcotest.(check int) "zero-weight category never drawn" 0 counts.(1);
  let ratio = float_of_int counts.(2) /. float_of_int counts.(0) in
  check_float ~eps:0.15 "ratio ~ 3" 3.0 ratio

let rng_categorical_rejects_zero_sum () =
  Alcotest.check_raises "zero weights"
    (Invalid_argument "Rng.weights: weights must have positive sum")
    (fun () -> ignore (Rng.weights [| 0.0; 0.0 |]));
  Alcotest.check_raises "negative weight"
    (Invalid_argument "Rng.weights: weights must be non-negative")
    (fun () -> ignore (Rng.weights [| 2.0; -1.0 |]))

(* Golden draws: a seed must produce the same stream in every release,
   whatever the generator's internal representation. *)
let rng_golden_streams () =
  let check name t expected =
    Alcotest.(check (list int64)) name expected (List.map (fun _ -> Rng.bits64 t) expected)
  in
  check "create 42" (Rng.create 42)
    [ 1546998764402558742L; 6990951692964543102L; -5902157311460992607L; -1389169964527427423L ];
  let parent = Rng.create 42 in
  check "split child" (Rng.split parent)
    [ -8150312660505607085L; 1184342940732292706L; 8258043193327897829L ];
  check "parent after split" parent [ 6990951692964543102L; -5902157311460992607L ];
  let parent = Rng.create 42 in
  check "derive 7" (Rng.derive parent 7)
    [ -4492356206366654907L; 5499287125300295356L; 1127564841850144904L ];
  ignore (Rng.bits64 parent : int64);
  check "copy after one draw" (Rng.copy parent)
    [ 6990951692964543102L; -5902157311460992607L; -1389169964527427423L ]

let rng_shuffle_permutes () =
  let rng = Rng.create 37 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "still a permutation" (Array.init 50 Fun.id) sorted

let rng_int_rejects_nonpositive () =
  let rng = Rng.create 1 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int rng 0))

(* ---------------------------------------------------------------- stats *)

let stats_mean_variance () =
  let acc = Stats.acc_create () in
  List.iter (Stats.acc_add acc) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  check_float "mean" 5.0 (Stats.mean acc);
  check_float "stddev (unbiased)" (sqrt (32.0 /. 7.0)) (Stats.stddev acc);
  check_float "min" 2.0 (Stats.min_value acc);
  check_float "max" 9.0 (Stats.max_value acc)

let stats_empty_acc () =
  let acc = Stats.acc_create () in
  Alcotest.(check bool) "mean is nan" true (Float.is_nan (Stats.mean acc));
  Alcotest.(check bool) "stddev is nan" true (Float.is_nan (Stats.stddev acc))

let stats_percentiles () =
  let samples = [| 15.0; 20.0; 35.0; 40.0; 50.0 |] in
  check_float "median" 35.0 (Stats.median samples);
  let q = Stats.percentiles samples [| 0.0; 100.0; 25.0 |] in
  check_float "p0 = min" 15.0 q.(0);
  check_float "p100 = max" 50.0 q.(1);
  check_float "p25 interpolates" 20.0 q.(2)

let stats_percentile_empty () =
  Alcotest.check_raises "empty" (Invalid_argument "Stats.percentile: empty sample") (fun () ->
      ignore (Stats.percentiles [||] [| 50.0 |]))

let stats_histogram () =
  let h = Stats.histogram ~bins:4 ~lo:0.0 ~hi:4.0 [| 0.5; 1.5; 1.6; 3.9; 4.0; -1.0; 9.0 |] in
  Alcotest.(check (array int)) "counts" [| 1; 2; 0; 2 |] h.counts;
  Alcotest.(check int) "underflow" 1 h.underflow;
  Alcotest.(check int) "overflow" 1 h.overflow

let stats_linear_fit () =
  let slope, intercept = Stats.linear_fit [| (0., 1.); (1., 3.); (2., 5.) |] in
  check_float "slope" 2.0 slope;
  check_float "intercept" 1.0 intercept

let stats_loglog_slope () =
  (* y = 5 x^3 *)
  let points = Array.map (fun x -> (x, 5.0 *. (x ** 3.0))) [| 1.0; 2.0; 4.0; 8.0 |] in
  check_float "exponent" 3.0 (Stats.loglog_slope points)

(* --------------------------------------------------------------- pqueue *)

let pqueue_ordering () =
  let h = Pqueue.create ~cmp:compare in
  List.iter (Pqueue.push h) [ 5; 3; 8; 1; 9; 2; 7 ];
  let rec drain acc = match Pqueue.pop h with None -> List.rev acc | Some x -> drain (x :: acc) in
  Alcotest.(check (list int)) "sorted drain" [ 1; 2; 3; 5; 7; 8; 9 ] (drain [])

let pqueue_pop_order () =
  let h = Pqueue.create ~cmp:compare in
  List.iter (Pqueue.push h) [ 4; 2; 6 ];
  Alcotest.(check (option int)) "peek" (Some 2) (Pqueue.peek h);
  Alcotest.(check (option int)) "pop 2" (Some 2) (Pqueue.pop h);
  Alcotest.(check (option int)) "pop 4" (Some 4) (Pqueue.pop h);
  Alcotest.(check (option int)) "pop 6" (Some 6) (Pqueue.pop h);
  Alcotest.(check (option int)) "empty" None (Pqueue.pop h)

let pqueue_empty () =
  let h = Pqueue.create ~cmp:compare in
  Alcotest.(check (option int)) "peek none" None (Pqueue.peek h);
  Alcotest.(check (option int)) "pop none" None (Pqueue.pop h)

let pqueue_clear () =
  let h = Pqueue.create ~cmp:compare in
  List.iter (Pqueue.push h) [ 1; 2; 3 ];
  Pqueue.clear h;
  Alcotest.(check (option int)) "cleared" None (Pqueue.peek h)

let pqueue_heap_property =
  qcheck ~count:200 "pqueue drains any int list sorted"
    QCheck.(list int)
    (fun xs ->
      let h = Pqueue.create ~cmp:compare in
      List.iter (Pqueue.push h) xs;
      let rec drain acc = match Pqueue.pop h with None -> List.rev acc | Some x -> drain (x :: acc) in
      drain [] = List.sort compare xs)

let pqueue_interleaved =
  qcheck ~count:200 "pqueue peek is always the minimum under interleaving"
    QCheck.(list (pair bool small_int))
    (fun ops ->
      let h = Pqueue.create ~cmp:compare in
      let model = ref [] (* kept sorted: a reference implementation *) in
      List.for_all
        (fun (is_push, v) ->
          if is_push then begin
            Pqueue.push h v;
            model := List.sort compare (v :: !model);
            true
          end
          else
            match (Pqueue.pop h, !model) with
            | None, [] -> true
            | Some x, y :: rest ->
                model := rest;
                x = y
            | Some _, [] | None, _ :: _ -> false)
        ops)

(* ------------------------------------------------------------- interval *)

module Interval = Dcache_prelude.Interval

let interval_basics () =
  let i = Interval.make ~lo:1.0 ~hi:3.0 in
  Alcotest.(check bool) "contains interior" true (Interval.contains i 2.0);
  Alcotest.(check bool) "contains endpoints" true
    (Interval.contains i 1.0 && Interval.contains i 3.0);
  Alcotest.(check bool) "outside" false (Interval.contains i 3.5);
  Alcotest.(check bool) "reversed rejected" true
    (try ignore (Interval.make ~lo:2.0 ~hi:1.0); false with Invalid_argument _ -> true);
  Alcotest.(check bool) "nan rejected" true
    (try ignore (Interval.make ~lo:nan ~hi:1.0); false with Invalid_argument _ -> true)

let interval_overlap () =
  let mk lo hi = Interval.make ~lo ~hi in
  Alcotest.(check bool) "proper overlap" true (Interval.overlaps (mk 0. 2.) (mk 1. 3.));
  Alcotest.(check bool) "touching is not overlap" false (Interval.overlaps (mk 0. 1.) (mk 1. 2.));
  Alcotest.(check bool) "disjoint" false (Interval.overlaps (mk 0. 1.) (mk 2. 3.))

let interval_merge_and_measure () =
  let mk lo hi = Interval.make ~lo ~hi in
  let merged = Interval.merge [ mk 2. 3.; mk 0. 1.; mk 0.5 1.5; mk 3. 4. ] in
  Alcotest.(check int) "two blocks" 2 (List.length merged);
  check_float "measure" 3.5 (Interval.measure [ mk 2. 3.; mk 0. 1.; mk 0.5 1.5; mk 3. 4. ]);
  check_float "double cover counted once" 1.0 (Interval.measure [ mk 0. 1.; mk 0. 1. ])

let interval_coverage () =
  let mk lo hi = Interval.make ~lo ~hi in
  Alcotest.(check bool) "covered" true
    (Interval.first_gap [ mk 0. 2.; mk 2. 5. ] ~lo:0. ~hi:5. = None);
  (match Interval.first_gap [ mk 0. 2.; mk 3. 5. ] ~lo:0. ~hi:5. with
  | Some (a, b) ->
      check_float "gap start" 2.0 a;
      check_float "gap end" 3.0 b
  | None -> Alcotest.fail "expected a gap");
  (match Interval.first_gap [ mk 1. 2. ] ~lo:0. ~hi:3. with
  | Some (a, _) -> check_float "leading gap" 0.0 a
  | None -> Alcotest.fail "expected the leading gap");
  Alcotest.(check bool) "empty range is covered" true (Interval.first_gap [] ~lo:1. ~hi:1. = None)

let interval_merge_property =
  qcheck ~count:200 "interval: merge preserves measure and sorts disjointly"
    QCheck.(list (pair (float_bound_exclusive 50.0) (float_bound_exclusive 10.0)))
    (fun raw ->
      let spans = List.map (fun (lo, w) -> Interval.make ~lo ~hi:(lo +. w)) raw in
      let merged = Interval.merge spans in
      (* merged blocks are sorted and pairwise non-overlapping *)
      let rec disjoint = function
        | a :: (b :: _ as rest) ->
            a.Interval.hi <= b.Interval.lo +. 1e-9 && disjoint rest
        | _ -> true
      in
      disjoint merged
      && Dcache_prelude.Float_cmp.approx_eq ~eps:1e-6 (Interval.measure spans)
           (List.fold_left (fun acc (i : Interval.t) -> acc +. (i.hi -. i.lo)) 0.0 merged))

(* ------------------------------------------------------------ float_cmp *)

let float_cmp_basics () =
  Alcotest.(check bool) "equal" true (Float_cmp.approx_eq 1.0 1.0);
  Alcotest.(check bool) "within eps" true (Float_cmp.approx_eq 1.0 (1.0 +. 1e-12));
  Alcotest.(check bool) "outside eps" false (Float_cmp.approx_eq 1.0 1.001);
  Alcotest.(check bool) "infinities equal" true (Float_cmp.approx_eq infinity infinity);
  Alcotest.(check bool) "mixed infinity" false (Float_cmp.approx_eq infinity 1.0);
  Alcotest.(check bool) "relative at scale" true (Float_cmp.approx_eq 1e12 (1e12 +. 1.0))

let float_cmp_ordering () =
  Alcotest.(check bool) "le strict" true (Float_cmp.approx_le 1.0 2.0);
  Alcotest.(check bool) "le approx" true (Float_cmp.approx_le (1.0 +. 1e-12) 1.0);
  Alcotest.(check bool) "not le" false (Float_cmp.approx_le 2.0 1.0);
  Alcotest.(check int) "compare equalish" 0 (Float_cmp.compare_approx 1.0 (1.0 +. 1e-12));
  Alcotest.(check int) "compare lt" (-1) (Float_cmp.compare_approx 1.0 2.0)

(* ---------------------------------------------------------------- table *)

let table_renders () =
  let t = Table.create [ Table.column ~align:Table.Left "name"; Table.column "value" ] in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_row t [ "b"; "22.5" ];
  let rendered = Table.render t in
  let lines = String.split_on_char '\n' rendered in
  Alcotest.(check int) "header + rule + 2 rows + trailing" 5 (List.length lines);
  Alcotest.(check bool) "left-aligned name" true
    (String.length (List.nth lines 2) > 0 && (List.nth lines 2).[0] = 'a');
  Alcotest.(check bool) "right-aligned value" true
    (let row = List.nth lines 2 in
     row.[String.length row - 1] = '1')

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let stats_kahan () =
  (* naive summation drops the unit next to 1e16; Neumaier keeps it *)
  let xs = [| 1e16; 1.0; -1e16 |] in
  check_float "naive loses the bit" 0.0 (Array.fold_left ( +. ) 0. xs);
  let k = Stats.kahan_create () in
  Array.iter (Stats.kahan_add k) xs;
  check_float "incremental total" 1.0 (Stats.kahan_total k);
  check_float "empty accumulator" 0.0 (Stats.kahan_total (Stats.kahan_create ()));
  (* a non-finite term keeps the IEEE sum instead of going nan *)
  let inf = Stats.kahan_create () in
  Stats.kahan_add inf infinity;
  Stats.kahan_add inf 1.0;
  Alcotest.(check bool) "inf stays inf" true (Stats.kahan_total inf = infinity)

let stats_histogram_renders () =
  let h = Stats.histogram ~bins:4 ~lo:0.0 ~hi:4.0 [| 0.5; 1.5; 1.6; 3.9; 5.0 |] in
  Alcotest.(check (array int)) "bars" [| 1; 2; 0; 1 |] h.counts;
  Alcotest.(check int) "reports overflow" 1 h.overflow

let table_float_rows () =
  let t = Table.create [ Table.column "a"; Table.column "b" ] in
  Table.add_row t (List.map Table.fmt_float [ 1.5; 2.25 ]);
  Table.add_row t (List.map (Table.fmt_float ~prec:1) [ 3.0; 0.125 ]);
  let rendered = Table.render t in
  Alcotest.(check bool) "default precision" true (contains rendered "1.500");
  Alcotest.(check bool) "explicit precision" true (contains rendered "0.1")

let table_cell_mismatch () =
  let t = Table.create [ Table.column "a" ] in
  Alcotest.check_raises "mismatch" (Invalid_argument "Table.add_row: cell count mismatch")
    (fun () -> Table.add_row t [ "1"; "2" ])

let table_float_formatting () =
  Alcotest.(check string) "inf" "inf" (Table.fmt_float infinity);
  Alcotest.(check string) "-inf" "-inf" (Table.fmt_float neg_infinity);
  Alcotest.(check string) "nan" "nan" (Table.fmt_float nan);
  Alcotest.(check string) "prec" "1.50" (Table.fmt_float ~prec:2 1.5)

let suite =
  [
    case "rng: deterministic from seed" rng_deterministic;
    case "rng: different seeds differ" rng_seed_sensitivity;
    case "rng: copy preserves stream" rng_copy_preserves_stream;
    case "rng: split independence" rng_split_independence;
    case "rng: derive is stable" rng_derive_stable;
    case "rng: derive leaves parent intact" rng_derive_does_not_advance_parent;
    case "rng: derive streams are independent" rng_derive_independence;
    case "rng: int within bounds" rng_int_bounds;
    case "rng: int covers range" rng_int_covers_range;
    case "rng: int_in within bounds" rng_int_in_bounds;
    case "rng: float within bounds" rng_float_bounds;
    case "rng: uniform float mean" rng_float_mean;
    case "rng: exponential mean" rng_exponential_mean;
    case "rng: pareto support" rng_pareto_support;
    case "rng: categorical respects weights" rng_categorical_weights;
    case "rng: categorical rejects zero sum" rng_categorical_rejects_zero_sum;
    case "rng: shuffle is a permutation" rng_shuffle_permutes;
    case "rng: golden streams" rng_golden_streams;
    case "rng: int rejects non-positive bound" rng_int_rejects_nonpositive;
    case "stats: mean/variance/extrema" stats_mean_variance;
    case "stats: empty accumulator" stats_empty_acc;
    case "stats: percentiles" stats_percentiles;
    case "stats: percentile on empty" stats_percentile_empty;
    case "stats: histogram binning" stats_histogram;
    case "stats: histogram rendering" stats_histogram_renders;
    case "stats: compensated summation" stats_kahan;
    case "stats: linear fit" stats_linear_fit;
    case "stats: log-log exponent" stats_loglog_slope;
    case "pqueue: sorted drain" pqueue_ordering;
    case "pqueue: pop order" pqueue_pop_order;
    case "pqueue: empty behaviour" pqueue_empty;
    case "pqueue: clear" pqueue_clear;
    pqueue_heap_property;
    pqueue_interleaved;
    case "interval: construction and membership" interval_basics;
    case "interval: overlap semantics" interval_overlap;
    case "interval: merge and measure" interval_merge_and_measure;
    case "interval: coverage and gaps" interval_coverage;
    interval_merge_property;
    case "float_cmp: equality semantics" float_cmp_basics;
    case "float_cmp: ordering" float_cmp_ordering;
    case "table: rendering and alignment" table_renders;
    case "table: cell count mismatch" table_cell_mismatch;
    case "table: float formatting" table_float_formatting;
    case "table: float rows" table_float_rows;
  ]
