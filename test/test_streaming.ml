(* Tests for the streaming (incremental) solver. *)

open Dcache_core
open Helpers

(* -------------------------------------------------------- streaming *)

let feed stream seq upto =
  for i = 1 to upto do
    Streaming_dp.push stream ~server:(Sequence.server seq i) ~time:(Sequence.time seq i)
  done

let prefix_optima_match_batch =
  qcheck ~count:200 "streaming: every prefix optimum equals the batch solver's"
    (nonempty_problem_arbitrary ())
    (fun { model; seq } ->
      let stream = Streaming_dp.create model ~m:(Sequence.m seq) in
      let ok = ref true in
      for i = 1 to Sequence.n seq do
        Streaming_dp.push stream ~server:(Sequence.server seq i) ~time:(Sequence.time seq i);
        let batch = Offline_dp.cost (Offline_dp.solve model (Sequence.sub seq i)) in
        if not (approx (Streaming_dp.cost stream) batch) then ok := false
      done;
      !ok)

(* A sweep sized for the whole sequence never grows a column; it must
   give the growing solver's every answer, bit for bit *)
let sized_and_grown { model; seq } =
  let grown = Streaming_dp.create model ~m:(Sequence.m seq) in
  feed grown seq (Sequence.n seq);
  (Streaming_dp.of_sequence model seq, grown)

let same_answers sized grown =
  let bits = Int64.bits_of_float in
  let same f i = bits (f sized i) = bits (f grown i) in
  let requests s = Sequence.requests (Streaming_dp.to_sequence s) in
  let ok = ref (requests sized = requests grown) in
  let c_sized = Streaming_dp.costs sized and c_grown = Streaming_dp.costs grown in
  for i = 0 to Sequence.n (Streaming_dp.to_sequence sized) do
    ok :=
      !ok
      && bits c_sized.(i) = bits c_grown.(i)
      && same Streaming_dp.semi_cost_at i
      && same Streaming_dp.marginal_at i
      && same Streaming_dp.running_at i
      && Streaming_dp.pivot_at sized i = Streaming_dp.pivot_at grown i
  done;
  let pieces s = (Schedule.caches s, Schedule.transfers s) in
  !ok && pieces (Streaming_dp.schedule sized) = pieces (Streaming_dp.schedule grown)

let of_sequence_matches_pushes =
  qcheck ~count:200 "streaming: of_sequence gives what create and push give, bit for bit"
    (problem_arbitrary ~max_n:150 ~with_upload:true ())
    (fun p ->
      let sized, grown = sized_and_grown p in
      same_answers sized grown)

let schedule_between_pushes =
  qcheck ~count:100 "streaming: schedules requested mid-stream are feasible and optimal"
    (nonempty_problem_arbitrary ())
    (fun { model; seq } ->
      let stream = Streaming_dp.create model ~m:(Sequence.m seq) in
      let k = max 1 (Sequence.n seq / 2) in
      feed stream seq k;
      let mid_sched = Streaming_dp.schedule stream in
      let mid_ok =
        (match Schedule.validate (Sequence.sub seq k) mid_sched with
        | Ok () -> true
        | Error _ -> false)
        && approx (Schedule.cost model mid_sched) (Streaming_dp.cost stream)
      in
      (* pushing more afterwards must still work *)
      for i = k + 1 to Sequence.n seq do
        Streaming_dp.push stream ~server:(Sequence.server seq i) ~time:(Sequence.time seq i)
      done;
      mid_ok && approx (Streaming_dp.cost stream) (Offline_dp.cost (Offline_dp.solve model seq)))

let arena_matches_full_scan =
  (* exercises the flat arena well past its growth boundaries (the
     first block doubling from 64 rows, then 4 096-row blocks) and
     across wide server counts, against the structure-free full-scan
     oracle *)
  qcheck ~count:8 "streaming: flat-arena C/D equal the full-scan oracle on large instances"
    QCheck.(pair (int_range 1_000 10_000) (int_range 2 128))
    (fun (n, m) ->
      let rng = Dcache_prelude.Rng.create (n + (131 * m)) in
      let clock = ref 0.0 in
      let requests =
        Array.init n (fun _ ->
            clock := !clock +. Dcache_prelude.Rng.float_in rng 0.01 0.6;
            Request.make ~server:(Dcache_prelude.Rng.int rng m) ~time:!clock)
      in
      let seq = Sequence.create_exn ~m requests in
      let model = Cost_model.make ~mu:1.0 ~lambda:2.0 () in
      let c, d = Dcache_baselines.Naive_dp.solve_vectors model seq in
      let stream = Streaming_dp.create model ~m in
      feed stream seq n;
      let costs = Streaming_dp.costs stream in
      let ok = ref true in
      for i = 1 to n do
        if
          not
            (approx ~eps:1e-6 c.(i) costs.(i)
            && approx ~eps:1e-6 d.(i) (Streaming_dp.semi_cost_at stream i))
        then ok := false
      done;
      !ok)

let streaming_accessors () =
  let model = Cost_model.unit in
  let stream = Streaming_dp.create model ~m:4 in
  let pushed () = Streaming_dp.to_sequence stream in
  Alcotest.(check int) "empty n" 0 (Sequence.n (pushed ()));
  Alcotest.(check int) "m" 4 (Sequence.m (pushed ()));
  check_float "empty cost" 0.0 (Streaming_dp.cost stream);
  let seq = fig6 () in
  feed stream seq 8;
  Alcotest.(check int) "n" 8 (Sequence.n (pushed ()));
  check_float "C(7)" 8.9 (Streaming_dp.costs stream).(7);
  check_float "D(7)" 9.2 (Streaming_dp.semi_cost_at stream 7);
  check_float "b_6" 0.6 (Streaming_dp.marginal_at stream 6);
  check_float "B_6" 5.6 (Streaming_dp.running_at stream 6);
  Alcotest.(check (option int)) "pivot of 7" (Some 4) (Streaming_dp.pivot_at stream 7);
  Alcotest.(check int) "server_at" 2 (Sequence.server (pushed ()) 7);
  check_float "time_at" 4.0 (Sequence.time (pushed ()) 7)

let schedule_memo () =
  let seq = fig6 () in
  let model = Cost_model.unit in
  let stream = Streaming_dp.create model ~m:(Sequence.m seq) in
  feed stream seq (Sequence.n seq - 1) ;
  let a = Streaming_dp.schedule stream in
  Alcotest.(check bool) "repeat request is physically equal" true
    (Streaming_dp.schedule stream == a);
  (* a push invalidates the memo: the new schedule is rebuilt, and it
     must cover the longer prefix *)
  let i = Sequence.n seq in
  Streaming_dp.push stream ~server:(Sequence.server seq i) ~time:(Sequence.time seq i);
  let b = Streaming_dp.schedule stream in
  Alcotest.(check bool) "push invalidates the memo" true (not (b == a));
  (match Schedule.validate seq b with
  | Ok () -> ()
  | Error e -> Alcotest.failf "post-push schedule invalid: %s" (String.concat "; " e));
  check_float "post-push schedule is optimal" (Streaming_dp.cost stream) (Schedule.cost model b);
  Alcotest.(check bool) "memo re-primed" true (Streaming_dp.schedule stream == b)

(* warm reconstruction must be allocation-free: after the first
   [schedule] call the memo answers from the packed arenas without
   touching the minor heap *)
let schedule_memo_alloc_free () =
  let rng = Dcache_prelude.Rng.create 97 in
  let clock = ref 0.0 in
  let requests =
    Array.init 500 (fun _ ->
        clock := !clock +. Dcache_prelude.Rng.float_in rng 0.05 0.7;
        Request.make ~server:(Dcache_prelude.Rng.int rng 8) ~time:!clock)
  in
  let seq = Sequence.create_exn ~m:8 requests in
  let stream = Streaming_dp.create (Cost_model.make ~mu:1.0 ~lambda:2.0 ()) ~m:8 in
  feed stream seq 500;
  ignore (Streaming_dp.schedule stream);
  (* calibrate away the cost of the Gc.minor_words probe itself (it
     boxes its float result) *)
  let calib = Gc.minor_words () in
  let calib = Gc.minor_words () -. calib in
  let before = Gc.minor_words () in
  let runs = 64 in
  for _ = 1 to runs do
    ignore (Sys.opaque_identity (Streaming_dp.schedule stream))
  done;
  let words = ((Gc.minor_words () -. before) -. calib) /. float_of_int runs in
  if words >= 1000.0 then
    Alcotest.failf "warm schedule reconstruction allocates %.1f minor words/run (budget 1000)"
      words

(* [push] itself allocates nothing per request: the 2 minor words are
   the boxed [time] that [Sequence.time] returns across the module
   boundary.  The first 4 096 pushes are left out, as in the bench's
   push probe: they carry the arena's early doublings, whose small
   blocks land in the minor heap (about 0.1 word per request over the
   whole run).  The budget of 3 fails on one more 2-word allocation
   per push (a boxed float, a [Some], a [ref]). *)
let push_allocation_budget () =
  let warm = 4096 in
  List.iter
    (fun (name, seq) ->
      let stream = Streaming_dp.create Cost_model.unit ~m:(Sequence.m seq) in
      feed stream seq warm;
      let before = Gc.minor_words () in
      for i = warm + 1 to Sequence.n seq do
        Streaming_dp.push stream ~server:(Sequence.server seq i) ~time:(Sequence.time seq i)
      done;
      let words = (Gc.minor_words () -. before) /. float_of_int (Sequence.n seq - warm) in
      if words > 3.0 then
        Alcotest.failf "Streaming_dp.push on %s allocates %.2f minor words/request (budget 3)"
          name words)
    (budget_workloads ())

let to_sequence_roundtrip =
  qcheck ~count:100 "streaming: to_sequence returns exactly what was pushed"
    (nonempty_problem_arbitrary ())
    (fun { model; seq } ->
      let stream = Streaming_dp.create model ~m:(Sequence.m seq) in
      feed stream seq (Sequence.n seq);
      Sequence.requests (Streaming_dp.to_sequence stream) = Sequence.requests seq)

let push_validation () =
  let stream = Streaming_dp.create Cost_model.unit ~m:2 in
  Streaming_dp.push stream ~server:1 ~time:1.0;
  List.iter
    (fun f -> Alcotest.(check bool) "rejected" true (try f (); false with Invalid_argument _ -> true))
    [
      (fun () -> Streaming_dp.push stream ~server:2 ~time:2.0);
      (fun () -> Streaming_dp.push stream ~server:(-1) ~time:2.0);
      (fun () -> Streaming_dp.push stream ~server:0 ~time:1.0);
      (fun () -> Streaming_dp.push stream ~server:0 ~time:0.5);
      (fun () -> Streaming_dp.push stream ~server:0 ~time:nan);
    ];
  (* the failed pushes must not have corrupted the solver *)
  Streaming_dp.push stream ~server:0 ~time:2.0;
  Alcotest.(check int) "still consistent" 2 (Sequence.n (Streaming_dp.to_sequence stream))

let create_validation () =
  Alcotest.(check bool) "m = 0" true
    (try ignore (Streaming_dp.create Cost_model.unit ~m:0); false
     with Invalid_argument _ -> true)

(* ------------------------------------------- metamorphic properties *)

let insertion_monotone =
  qcheck ~count:150 "metamorphic: serving one more request never costs less"
    (nonempty_problem_arbitrary ())
    (fun { model; seq } ->
      (* drop a random-ish middle request and compare *)
      let n = Sequence.n seq in
      let drop = 1 + (n / 2) in
      let smaller =
        Sequence.create_exn ~m:(Sequence.m seq)
          (Array.of_list
             (List.filteri (fun i _ -> i + 1 <> drop) (Array.to_list (Sequence.requests seq))))
      in
      Dcache_prelude.Float_cmp.approx_le
        (Offline_dp.cost (Offline_dp.solve model smaller))
        (Offline_dp.cost (Offline_dp.solve model seq)))

let time_scale_invariance =
  qcheck ~count:150 "metamorphic: stretching time while shrinking mu preserves the optimum"
    (nonempty_problem_arbitrary ())
    (fun { model; seq } ->
      let factor = 3.0 in
      let stretched =
        Sequence.create_exn ~m:(Sequence.m seq)
          (Array.map
             (fun r -> { r with Request.time = r.Request.time *. factor })
             (Sequence.requests seq))
      in
      let rescaled =
        Cost_model.make ~mu:(model.Cost_model.mu /. factor) ~lambda:model.Cost_model.lambda ()
      in
      approx ~eps:1e-6
        (Offline_dp.cost (Offline_dp.solve model seq))
        (Offline_dp.cost (Offline_dp.solve rescaled stretched)))

let server_relabel_invariance =
  qcheck ~count:150 "metamorphic: permuting non-initial server labels preserves the optimum"
    (nonempty_problem_arbitrary ())
    (fun { model; seq } ->
      let m = Sequence.m seq in
      (* rotate labels 1..m-1, keeping the initial holder fixed *)
      let relabel s = if s = 0 then 0 else 1 + ((s - 1 + 1) mod (m - 1)) in
      if m < 3 then true
      else
        let rotated =
          Sequence.create_exn ~m
            (Array.map
               (fun r -> { r with Request.server = relabel r.Request.server })
               (Sequence.requests seq))
        in
        approx ~eps:1e-6
          (Offline_dp.cost (Offline_dp.solve model seq))
          (Offline_dp.cost (Offline_dp.solve model rotated)))

let exchange_local_optimality =
  qcheck ~count:80 "metamorphic: no cache interval of OPT can be swapped for a transfer"
    (nonempty_problem_arbitrary ~max_n:10 ())
    (fun { model; seq } ->
      (* removing any single cache interval that ends at a request and
         serving that request by a transfer instead must not beat OPT
         (it cannot, since OPT is optimal — we rebuild the mutated
         schedule and check it is never cheaper while feasible) *)
      let opt = Offline_dp.cost (Offline_dp.solve model seq) in
      let sched = Offline_dp.schedule (Offline_dp.solve model seq) in
      List.for_all
        (fun piece ->
          let others = List.filter (fun c -> c <> piece) (Schedule.caches sched) in
          let served_requests =
            List.filter
              (fun i ->
                Sequence.server seq i = piece.Schedule.server
                && approx (Sequence.time seq i) piece.Schedule.to_time)
              (List.init (Sequence.n seq) (fun i -> i + 1))
          in
          match served_requests with
          | [ i ] -> (
              (* try to serve r_i by a transfer from any other cacher *)
              let ti = Sequence.time seq i in
              let source =
                List.find_opt
                  (fun c ->
                    c.Schedule.server <> piece.Schedule.server
                    && c.Schedule.from_time <= ti && ti <= c.Schedule.to_time)
                  others
              in
              match source with
              | None -> true (* no feasible mutation *)
              | Some src ->
                  let mutated =
                    Schedule.make ~caches:others
                      ~transfers:
                        ({ Schedule.src = Schedule.From_server src.Schedule.server;
                           dst = piece.Schedule.server;
                           time = ti;
                         }
                        :: Schedule.transfers sched)
                  in
                  (match Schedule.validate seq mutated with
                  | Ok () -> Schedule.cost model mutated >= opt -. 1e-9
                  | Error _ -> true))
          | _ -> true)
        (Schedule.caches sched))

(* --mu 1e308: every step overflows to inf, and a request on a server
   with no earlier request (so no D(i)) used to win the tie
   [D(i) = inf <= step], sending the reconstruction down a D branch
   that does not exist (an assertion failure in [schedule]). *)
let overflowed_step_takes_the_c_branch () =
  let model = Cost_model.make ~mu:1e308 ~lambda:1.0 () in
  let check name seq =
    let result = Offline_dp.solve model seq in
    let schedule = Offline_dp.schedule result in
    (match Schedule.validate seq schedule with
    | Ok () -> ()
    | Error e -> Alcotest.failf "%s: infeasible schedule: %s" name (String.concat "; " e));
    Alcotest.(check bool) (name ^ ": the cost overflows") false
      (Float.is_finite (Offline_dp.cost result))
  in
  check "one request on a fresh server" (Sequence.of_list ~m:2 [ (1, 2.0) ]);
  match Dcache_workload.Trace_io.read ~filename:"data/15041.events" ~m:8 with
  | Ok seq -> check "data/15041.events, m = 8" seq
  | Error e -> Alcotest.fail e

(* ------------------------------------------- the reconstruction walk *)

(* Instances for the walk: m = 1-8, n = 0-300, time gaps that are
   often a single ulp, dyadic gaps and rates that make mu sigma_h tie
   lambda exactly, uploads below, at, 1 ulp around and above lambda,
   and now and then a rate that overflows every cost *)
let walk_problem_gen =
  let open QCheck.Gen in
  let* m = int_range 1 8 and* n = int_range 0 300 in
  let* servers = array_size (return n) (int_range 0 (m - 1)) in
  let* gaps = array_size (return n) ulp_gap_gen in
  let* mu =
    frequency [ (4, float_range 0.1 4.0); (2, return 1.0); (1, return 2.0); (1, return 1e308) ]
  in
  let* lambda = frequency [ (2, float_range 0.1 4.0); (1, return 1.0); (1, return 0.5) ] in
  let* upload =
    oneof
      [
        return infinity;
        return lambda;
        return (Float.pred lambda);
        return (Float.succ lambda);
        map (fun f -> f *. lambda) (float_range 0.1 0.99);
        float_range 0.1 4.0;
      ]
  in
  match Sequence.of_columns ~m ~servers ~times:(times_of_gaps gaps) with
  | Ok seq -> return { model = Cost_model.make ~upload ~mu ~lambda (); seq }
  | Error msg -> failwith msg

let same_schedule a b =
  let bits = Int64.bits_of_float in
  let cache (c : Schedule.cache) = (c.server, bits c.from_time, bits c.to_time) in
  let transfer (tr : Schedule.transfer) = (tr.src, tr.dst, bits tr.time) in
  List.map cache (Schedule.caches a) = List.map cache (Schedule.caches b)
  && List.map transfer (Schedule.transfers a) = List.map transfer (Schedule.transfers b)

(* [schedule] against the walk it replaced, column for column: after
   the batch solve, and after every push of a stream whose schedule
   is asked for between pushes *)
let schedule_matches_reference_walk =
  qcheck ~count:60 "streaming: schedule equals the reference walk on every prefix"
    (QCheck.make ~print:problem_print walk_problem_gen)
    (fun { model; seq } ->
      let check what stream =
        if not (same_schedule (Streaming_dp.schedule stream) (Schedule_reference.walk model stream))
        then QCheck.Test.fail_reportf "%s: the schedules differ" what
      in
      check "of_sequence" (Streaming_dp.of_sequence model seq);
      let stream = Streaming_dp.create model ~m:(Sequence.m seq) in
      check "prefix 0" stream;
      for i = 1 to Sequence.n seq do
        Streaming_dp.push stream ~server:(Sequence.server seq i) ~time:(Sequence.time seq i);
        check (Printf.sprintf "prefix %d" i) stream
      done;
      true)

(* Streams past the first block: the pushed solver reads rows one and
   two blocks back through its directories, while [of_sequence] keeps
   every row in one block.  Both must agree bit for bit, and the
   schedule must equal the reference walk's. *)
let blocks_match_one_block =
  qcheck ~count:8 "streaming: of_sequence and pushes agree across row blocks, bit for bit"
    long_problem_arbitrary (fun p ->
      let sized, grown = sized_and_grown p in
      same_answers sized grown
      && same_schedule (Streaming_dp.schedule grown) (Schedule_reference.walk p.model grown))

(* Pushes past the first block allocate one block of float rows per
   4 096 pushes (3 words a row) beside the boxed [time] (2 words): 4.35
   on every workload, where doubling read 14.37 and rows that kept C
   read 5.12.  The budget of 5 fails on a block twice the size of the
   last, on C back in the rows, or on one more 2-word allocation per
   push. *)
let push_words_past_first_block () =
  let warm = 4096 in
  List.iter
    (fun (name, seq) ->
      let stream = Streaming_dp.create Cost_model.unit ~m:(Sequence.m seq) in
      feed stream seq warm;
      let words =
        words_per_request ~n:(Sequence.n seq - warm) (fun () ->
            for i = warm + 1 to Sequence.n seq do
              Streaming_dp.push stream ~server:(Sequence.server seq i) ~time:(Sequence.time seq i)
            done)
      in
      if words > 5.0 then
        Alcotest.failf
          "Streaming_dp.push past the first block on %s allocates %.2f words/push (budget 5)" name
          words)
    (budget_workloads ())

(* Streams that end within a few rows of a block boundary: 64, 128,
   ..., 4 096 rows (the appended blocks that double the stream), and
   8 192 (the first 4 096-row block after them).  Each is solved three
   ways, bit for bit alike: [of_sequence] in one block, [create] and a
   push per request across the appended blocks, and [of_sequence] on
   a prefix pushed past its end with the rest (copied once when the
   prefix's rows are not whole 64-row pages, appended when they are). *)
let boundary_problem_gen =
  let open QCheck.Gen in
  let* k = int_range 0 7
  and* d = int_range (-3) 3
  and* m = oneofl [ 1; 2; 8 ]
  and* seed = int_bound 1_000_000
  and* mu = float_range 0.1 4.0
  and* lambda = float_range 0.1 4.0
  and* upload = oneof [ return infinity; float_range 0.1 4.0 ] in
  (* the boundary counts rows, and row 0 is the boundary request *)
  let n = (64 lsl k) - 1 + d in
  let seq =
    Dcache_workload.Generator.generate_seeded ~seed
      {
        Dcache_workload.Generator.m;
        n;
        arrival = Dcache_workload.Arrival.Poisson { rate = 1.0 };
        placement = Dcache_workload.Placement.Uniform_random;
      }
  in
  let* prefix = oneof [ int_bound n; return (min n ((64 lsl (k / 2)) - 1)) ] in
  return ({ model = Cost_model.make ~upload ~mu ~lambda (); seq }, prefix)

let blocks_agree_at_every_boundary =
  qcheck ~count:40 "streaming: pushes agree with of_sequence at every appended-block boundary"
    (QCheck.make
       ~print:(fun ({ model; seq }, prefix) ->
         Format.asprintf "n = %d, m = %d, prefix %d, %a" (Sequence.n seq) (Sequence.m seq) prefix
           pp_model model)
       boundary_problem_gen)
    (fun (({ model; seq } as p), prefix) ->
      let sized, grown = sized_and_grown p in
      let pushed_past = Streaming_dp.of_sequence model (Sequence.sub seq prefix) in
      for i = prefix + 1 to Sequence.n seq do
        Streaming_dp.push pushed_past ~server:(Sequence.server seq i) ~time:(Sequence.time seq i)
      done;
      same_answers sized grown && same_answers pushed_past grown)

(* The grow counts and capacities the ledger and the perf gate read:
   a stream appends 64, 128, ..., 2 048 rows and then 4 096 at a time,
   so 500 requests fit in 512 rows after 3 grows, the perf gate's 1 000
   pushes end at 1 024 rows (arena_cap 6 144 at m = 6) after 4, and
   100 000 requests at 102 400 rows after 30 *)
let appended_blocks_keep_counts () =
  let module Obs = Dcache_obs.Obs in
  let r = Obs.recorder ~clock:(Dcache_obs.Clock.ticks ()) () in
  Obs.set_sink (Obs.Recording r);
  Fun.protect
    ~finally:(fun () ->
      Obs.set_sink Obs.Noop;
      Obs.reset ())
    (fun () ->
      let grows = Obs.counter "streaming_dp.grow" and arena = Obs.gauge "streaming_dp.arena_cap" in
      List.iter
        (fun (n, m, want_grows, want_rows) ->
          Obs.reset ();
          let stream = Streaming_dp.create Cost_model.unit ~m in
          for i = 1 to n do
            Streaming_dp.push stream ~server:(i mod m) ~time:(float_of_int i)
          done;
          Alcotest.(check int)
            (Printf.sprintf "grows at n = %d" n)
            want_grows (Obs.counter_value grows);
          check_float (Printf.sprintf "arena_cap at n = %d" n)
            (float_of_int (want_rows * m))
            (gauge_value arena))
        [ (500, 4, 3, 512); (1000, 6, 4, 1024); (100_000, 1, 30, 102_400) ])

(* [of_sequence] takes the sequence's time column as its rows' time
   plane.  Pushed past its end (copied once when the prefix's rows are
   not whole 64-row pages, appended to when they are) and read back
   through [schedule], [costs] and [to_sequence], it gives the pushed
   stream's every answer and leaves the column bit for bit as it was. *)
let batch_solve_reads_times_in_place =
  qcheck ~count:40 "streaming: a batch solve reads the sequence's times and never writes them"
    (QCheck.make
       ~print:(fun ({ model; seq }, prefix) ->
         Format.asprintf "n = %d, m = %d, prefix %d, %a" (Sequence.n seq) (Sequence.m seq) prefix
           pp_model model)
       boundary_problem_gen)
    (fun (({ model; seq } as p), prefix) ->
      let head = Sequence.sub seq prefix in
      let bits () = Array.map Int64.bits_of_float head.Sequence.time in
      let before = bits () in
      let stream = Streaming_dp.of_sequence model head in
      ignore (Streaming_dp.schedule stream);
      for i = prefix + 1 to Sequence.n seq do
        Streaming_dp.push stream ~server:(Sequence.server seq i) ~time:(Sequence.time seq i)
      done;
      ignore (Streaming_dp.schedule stream);
      ignore (Streaming_dp.costs stream);
      ignore (Streaming_dp.to_sequence stream);
      let _, grown = sized_and_grown p in
      let same = same_answers stream grown in
      same && bits () = before)

let suite =
  [
    prefix_optima_match_batch;
    of_sequence_matches_pushes;
    arena_matches_full_scan;
    schedule_between_pushes;
    case "streaming: accessors on fig6" streaming_accessors;
    case "streaming: schedule memo and push invalidation" schedule_memo;
    case "streaming: warm reconstruction is allocation-free" schedule_memo_alloc_free;
    to_sequence_roundtrip;
    case "streaming: push validation" push_validation;
    case "streaming: create validation" create_validation;
    insertion_monotone;
    time_scale_invariance;
    server_relabel_invariance;
    exchange_local_optimality;
    case "streaming: an overflowed step takes the C branch" overflowed_step_takes_the_c_branch;
    case "streaming: push allocation budget" push_allocation_budget;
    schedule_matches_reference_walk;
    blocks_match_one_block;
    case "streaming: pushes past the first block stay within 7 words" push_words_past_first_block;
    blocks_agree_at_every_boundary;
    case "streaming: appended blocks keep the grow counts and capacities"
      appended_blocks_keep_counts;
    batch_solve_reads_times_in_place;
  ]
