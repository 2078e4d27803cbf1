(* Tests for the workload generators and trace I/O. *)

open Dcache_core
open Helpers
module W = Dcache_workload

let rng () = Dcache_prelude.Rng.create 20250704

(* --------------------------------------------------------------- arrival *)

let arrivals_strictly_increasing () =
  List.iter
    (fun arrival ->
      let times = W.Arrival.generate (rng ()) arrival ~n:500 in
      Alcotest.(check int) "length" 500 (Array.length times);
      Alcotest.(check bool) "positive start" true (times.(0) > 0.);
      for i = 1 to 499 do
        if times.(i) <= times.(i - 1) then Alcotest.fail "times must strictly increase"
      done)
    [
      W.Arrival.Uniform { gap = 0.5 };
      W.Arrival.Poisson { rate = 2.0 };
      W.Arrival.Pareto { shape = 1.5; scale = 0.1 };
    ]

let uniform_arrival_exact () =
  let times = W.Arrival.generate (rng ()) (W.Arrival.Uniform { gap = 0.25 }) ~n:4 in
  Alcotest.(check (array (float 1e-9))) "grid" [| 0.25; 0.5; 0.75; 1.0 |] times

let poisson_rate_controls_density () =
  let fast = W.Arrival.generate (rng ()) (W.Arrival.Poisson { rate = 10.0 }) ~n:2000 in
  let slow = W.Arrival.generate (rng ()) (W.Arrival.Poisson { rate = 1.0 }) ~n:2000 in
  Alcotest.(check bool) "rate 10 is ~10x denser" true
    (slow.(1999) > 5.0 *. fast.(1999))

let arrival_rejects_bad_params () =
  let rejects what arrival n =
    Alcotest.(check bool) what true
      (try ignore (W.Arrival.generate (rng ()) arrival ~n); false with Invalid_argument _ -> true)
  in
  rejects "zero gap" (W.Arrival.Uniform { gap = 0.0 }) 3;
  rejects "negative n" (W.Arrival.Poisson { rate = 1.0 }) (-1);
  (* every parameter is checked before the first draw, so n = 0 too *)
  List.iter
    (fun (what, arrival) -> rejects what arrival 0)
    [
      ("zero gap, n = 0", W.Arrival.Uniform { gap = 0.0 });
      ("zero rate, n = 0", W.Arrival.Poisson { rate = 0.0 });
      ("nan rate, n = 0", W.Arrival.Poisson { rate = nan });
      ("zero Pareto shape, n = 0", W.Arrival.Pareto { shape = 0.0; scale = 1.0 });
      ("negative Pareto scale, n = 0", W.Arrival.Pareto { shape = 1.5; scale = -1.0 });
      ( "peak below the base, n = 0",
        W.Arrival.Periodic { base_rate = 2.0; peak_rate = 1.0; period = 5.0 } );
    ]

(* ------------------------------------------------------------- placement *)

let placements_in_range () =
  List.iter
    (fun placement ->
      let servers = W.Placement.generate (rng ()) placement ~m:5 ~n:400 in
      Array.iter (fun s -> if s < 0 || s >= 5 then Alcotest.failf "server %d out of range" s) servers)
    [
      W.Placement.Uniform_random;
      W.Placement.Zipf { exponent = 1.2 };
      W.Placement.Mobility { stay = 0.8; ring = true };
      W.Placement.Mobility { stay = 0.3; ring = false };
      W.Placement.Round_robin;
    ]

let zipf_skews_towards_low_ranks () =
  let servers = W.Placement.generate (rng ()) (W.Placement.Zipf { exponent = 1.5 }) ~m:6 ~n:6000 in
  let counts = Array.make 6 0 in
  Array.iter (fun s -> counts.(s) <- counts.(s) + 1) servers;
  Alcotest.(check bool) "rank 0 dominates rank 5" true (counts.(0) > 3 * counts.(5));
  Alcotest.(check bool) "rank 0 > rank 1" true (counts.(0) > counts.(1))

let zipf_zero_exponent_is_uniform () =
  let servers = W.Placement.generate (rng ()) (W.Placement.Zipf { exponent = 0.0 }) ~m:4 ~n:8000 in
  let counts = Array.make 4 0 in
  Array.iter (fun s -> counts.(s) <- counts.(s) + 1) servers;
  Array.iter
    (fun c ->
      if abs (c - 2000) > 300 then Alcotest.failf "not uniform: %d" c)
    counts

let mobility_high_stay_is_sticky () =
  let servers =
    W.Placement.generate (rng ()) (W.Placement.Mobility { stay = 0.95; ring = true }) ~m:8 ~n:4000
  in
  let stays = ref 0 in
  for i = 1 to 3999 do
    if servers.(i) = servers.(i - 1) then incr stays
  done;
  Alcotest.(check bool) "~95% stays" true (!stays > 3600)

let mobility_ring_moves_are_adjacent () =
  let m = 8 in
  let servers =
    W.Placement.generate (rng ()) (W.Placement.Mobility { stay = 0.2; ring = true }) ~m ~n:2000
  in
  for i = 1 to 1999 do
    let d = abs (servers.(i) - servers.(i - 1)) in
    if not (d = 0 || d = 1 || d = m - 1) then
      Alcotest.failf "non-adjacent hop %d -> %d" servers.(i - 1) servers.(i)
  done

let round_robin_cycles () =
  let servers = W.Placement.generate (rng ()) W.Placement.Round_robin ~m:3 ~n:7 in
  Alcotest.(check (array int)) "cycle" [| 0; 1; 2; 0; 1; 2; 0 |] servers

let single_server_mobility () =
  (* m = 1 must not loop or crash *)
  let servers = W.Placement.generate (rng ()) (W.Placement.Mobility { stay = 0.0; ring = false }) ~m:1 ~n:50 in
  Array.iter (fun s -> Alcotest.(check int) "only server 0" 0 s) servers

let periodic_arrival_valid () =
  let times =
    W.Arrival.generate (rng ()) (W.Arrival.Periodic { base_rate = 0.5; peak_rate = 5.0; period = 10.0 }) ~n:800
  in
  Alcotest.(check int) "length" 800 (Array.length times);
  for i = 1 to 799 do
    if times.(i) <= times.(i - 1) then Alcotest.fail "strictly increasing"
  done;
  (* the long-run rate must sit strictly between base and peak *)
  let mean_rate = 800.0 /. times.(799) in
  Alcotest.(check bool) "rate between base and peak" true (mean_rate > 0.5 && mean_rate < 5.0)

let periodic_rejects_bad_rates () =
  Alcotest.(check bool) "peak < base" true
    (try
       ignore
         (W.Arrival.generate (rng ())
            (W.Arrival.Periodic { base_rate = 2.0; peak_rate = 1.0; period = 5.0 })
            ~n:3);
       false
     with Invalid_argument _ -> true)

let multi_user_in_range_and_local () =
  let servers =
    W.Placement.generate (rng ()) (W.Placement.Multi_user { users = 3; stay = 0.9; ring = true })
      ~m:9 ~n:3000
  in
  Array.iter (fun s -> if s < 0 || s >= 9 then Alcotest.failf "out of range %d" s) servers;
  (* with 3 sticky users the trace should still visit several cells *)
  let distinct = List.sort_uniq compare (Array.to_list servers) in
  Alcotest.(check bool) "several cells visited" true (List.length distinct >= 3)

let multi_user_one_user_is_mobility_like () =
  (* a single walker must be exactly as sticky as plain mobility *)
  let servers =
    W.Placement.generate (rng ()) (W.Placement.Multi_user { users = 1; stay = 1.0; ring = true })
      ~m:5 ~n:100
  in
  Array.iter (fun s -> Alcotest.(check int) "never moves" servers.(0) s) servers

(* --------------------------------------------------------------- generator *)

let generator_produces_valid_sequences =
  qcheck ~count:60 "workload: generated instances validate as sequences"
    QCheck.(pair (int_range 1 8) (int_range 0 80))
    (fun (m, n) ->
      let seq =
        W.Generator.generate_seeded ~seed:((m * 1000) + n)
          {
            W.Generator.m;
            n;
            arrival = W.Arrival.Poisson { rate = 1.5 };
            placement = W.Placement.Mobility { stay = 0.7; ring = true };
          }
      in
      Sequence.n seq = n && Sequence.m seq = m)

let generator_deterministic_in_seed () =
  let spec =
    {
      W.Generator.m = 4;
      n = 60;
      arrival = W.Arrival.Pareto { shape = 1.3; scale = 0.2 };
      placement = W.Placement.Zipf { exponent = 1.0 };
    }
  in
  let a = W.Generator.generate_seeded ~seed:9 spec in
  let b = W.Generator.generate_seeded ~seed:9 spec in
  let c = W.Generator.generate_seeded ~seed:10 spec in
  Alcotest.(check bool) "same seed, same instance" true
    (Sequence.requests a = Sequence.requests b);
  Alcotest.(check bool) "different seed, different instance" true
    (Sequence.requests a <> Sequence.requests c)

let standard_suite_shape () =
  let model = Cost_model.make ~mu:1.0 ~lambda:2.0 () in
  let suite = W.Generator.standard_suite model ~m:4 ~n:50 ~seed:1 in
  Alcotest.(check int) "eleven workloads" 11 (List.length suite);
  List.iter
    (fun (name, seq) ->
      if Sequence.n seq <> 50 then Alcotest.failf "%s: wrong n" name;
      if Sequence.m seq <> 4 then Alcotest.failf "%s: wrong m" name)
    suite

(* --------------------------------------------------------------- adversary *)

let adversary_gaps () =
  let model = Cost_model.make ~mu:1.0 ~lambda:2.0 () in
  let seq = W.Adversary.expiry_chaser model ~m:3 ~n:30 in
  let delta_t = Cost_model.delta_t model in
  for i = 1 to 30 do
    let gap = Sequence.time seq i -. Sequence.time seq (i - 1) in
    if gap <= delta_t then Alcotest.fail "expiry chaser must arrive after the window"
  done

let adversary_ping_pong_two_servers () =
  let model = Cost_model.unit in
  let seq = W.Adversary.ping_pong_far model ~m:4 ~n:20 in
  for i = 3 to 20 do
    Alcotest.(check int) "alternates with period 2" (Sequence.server seq (i - 2)) (Sequence.server seq i)
  done

let adversary_families_stress_sc () =
  let model = Cost_model.make ~mu:1.0 ~lambda:2.0 () in
  List.iter
    (fun (name, family) ->
      let seq = family model ~m:4 ~n:24 in
      Alcotest.(check int) (name ^ ": n") 24 (Sequence.n seq);
      Alcotest.(check int) (name ^ ": m") 4 (Sequence.m seq);
      let sc = Online_sc.run model seq in
      let opt = Offline_dp.cost (Offline_dp.solve model seq) in
      if not (Dcache_prelude.Float_cmp.approx_le opt sc.Online_sc.total_cost) then
        Alcotest.failf "%s: SC billed below the offline optimum" name)
    [
      ("window_edge", fun model ~m ~n -> List.assoc "window-edge" (W.Adversary.all model ~m ~n));
      ("burst_train", W.Adversary.burst_train);
    ]

let adversary_rejects_degenerate () =
  Alcotest.(check bool) "m = 1" true
    (try ignore (W.Adversary.expiry_chaser Cost_model.unit ~m:1 ~n:5); false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------ pretty-print *)

let spec_and_stats_pretty_print () =
  let stats = W.Trace_stats.analyze (fig6 ()) in
  let text = Format.asprintf "%a" (W.Trace_stats.pp_with_model Cost_model.unit) stats in
  Alcotest.(check bool) "stats render" true (String.length text > 0)

(* ---------------------------------------------------------------- trace io *)

let trace_roundtrip =
  qcheck ~count:80 "trace_io: write/read roundtrip preserves the instance"
    (nonempty_problem_arbitrary ())
    (fun { seq; _ } ->
      let text = W.Trace_io.to_string seq in
      match W.Trace_io.of_string ~m:(Sequence.m seq) text with
      | Ok seq' -> Sequence.requests seq = Sequence.requests seq'
      | Error _ -> false)

let trace_parses_comments_and_header () =
  let text = "# a comment\nserver,time\n0,1.5\n\n1,2.5\n" in
  match W.Trace_io.of_string ~m:2 text with
  | Ok seq ->
      Alcotest.(check int) "two requests" 2 (Sequence.n seq);
      check_float "first time" 1.5 (Sequence.time seq 1)
  | Error e -> Alcotest.fail e

let trace_rejects_garbage () =
  let cases =
    [
      ("not,a,csv,line", "arity");
      ("x,1.0", "bad server");
      ("0,abc", "bad time");
      ("0,2.0\n0,1.0", "non-increasing");
      ("5,1.0", "server out of range");
    ]
  in
  List.iter
    (fun (text, what) ->
      match W.Trace_io.of_string ~m:3 text with
      | Ok _ -> Alcotest.failf "%s accepted" what
      | Error _ -> ())
    cases

let trace_file_roundtrip () =
  let seq = fig6 () in
  let filename = Filename.temp_file "dcache" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove filename)
    (fun () ->
      W.Trace_io.write ~filename seq;
      match W.Trace_io.read ~filename ~m:4 with
      | Ok seq' ->
          Alcotest.(check bool) "roundtrip" true (Sequence.requests seq = Sequence.requests seq')
      | Error e -> Alcotest.fail e)

let trace_write_matches_to_string =
  qcheck ~count:40 "trace_io: write writes exactly the bytes of to_string"
    (problem_arbitrary ~max_n:60 ())
    (fun { seq; _ } ->
      let filename = Filename.temp_file "dcache" ".csv" in
      Fun.protect
        ~finally:(fun () -> Sys.remove filename)
        (fun () ->
          W.Trace_io.write ~filename seq;
          In_channel.with_open_bin filename In_channel.input_all = W.Trace_io.to_string seq))

(* Random valid traces, rendered the way real files vary: CRLF or LF
   line ends, spaces and tabs around fields, comments, blank lines,
   headers in any letter case anywhere, other spellings of the same
   numbers, and an optional final newline. *)
let render_gen =
  let open QCheck.Gen in
  let space = oneofl [ ""; ""; " "; "\t"; "  "; " \t"; "\012" ] in
  let eol = oneofl [ "\n"; "\n"; "\r\n" ] in
  (* the zero-padded and 64-decimal spellings exceed the parser's
     reusable field buffers *)
  let server_text s =
    let d = string_of_int s in
    let hex = Printf.sprintf "0x%x" s and octal = Printf.sprintf "0o%o" s in
    oneofl [ d; "+" ^ d; d ^ "_"; hex; octal; String.make 64 '0' ^ d ]
  in
  let time_text t =
    oneofl (List.map (fun fmt -> Printf.sprintf fmt t) [ "%.17g"; "%h"; "%.17e"; "%.64f" ])
  in
  let skipped =
    frequency
      [
        (3, return "");
        (1, map (( ^ ) "#") (oneofl [ ""; " comment"; " 1,2"; "#" ]));
        (1, space);
        (1, oneofl [ "server,time"; "Server,Time"; "SERVER,time"; "sErVeR,tImE" ]);
      ]
  in
  (* a request line, preceded by a line the parser skips *)
  let request_line server time =
    let* pre = skipped and* s = server_text server and* t = time_text time in
    let* a = space and* b = space and* c = space and* d = space and* e = eol in
    return ((if pre = "" then "" else pre ^ e) ^ a ^ s ^ b ^ "," ^ c ^ t ^ d ^ e)
  in
  let* m = int_range 1 8 in
  let* n = int_range 0 30 in
  let* servers = array_size (return n) (int_range 0 (m - 1)) in
  let* gaps = array_size (return n) (float_range 0.001 5.0) in
  let times = Array.make n 0.0 in
  Array.iteri (fun i g -> times.(i) <- (if i = 0 then 0.0 else times.(i - 1)) +. g) gaps;
  let+ lines = flatten_l (List.init n (fun i -> request_line servers.(i) times.(i)))
  and+ final_newline = bool in
  let text = String.concat "" lines in
  let cut = if String.ends_with ~suffix:"\r\n" text then 2 else 1 in
  (m, if final_newline || text = "" then text else String.sub text 0 (String.length text - cut))

let print_trace (m, text) = Printf.sprintf "m=%d %S" m text

(* Same answer: both [Error], or both [Ok] with the same requests. *)
let same_result a b =
  match (a, b) with
  | Error _, Error _ -> true
  | Ok x, Ok y -> Sequence.m x = Sequence.m y && Sequence.requests x = Sequence.requests y
  | _ -> false

let trace_parser_matches_reference =
  qcheck ~count:400 "trace_io: rendered valid traces parse as the reference does"
    (QCheck.make ~print:print_trace render_gen)
    (fun (m, text) ->
      match W.Trace_io.of_string ~m text with
      | Ok _ as parsed -> same_result parsed (Trace_reference.of_string ~m text)
      | Error msg -> QCheck.Test.fail_reportf "rejected: %s" msg)

(* Byte mutations of rendered traces, biased towards the tokens the
   grammar reacts to, and now and then an [m] no instance can have. *)
let mutated_gen =
  let open QCheck.Gen in
  let token m =
    oneofl [ ","; "#"; "nan"; "inf"; "-"; "0x"; "_"; "\n"; "\r"; " "; "."; "e"; string_of_int m ]
  in
  let mutate m text =
    let len = String.length text in
    let* pos = int_range 0 len in
    let* kind = int_range 0 2 in
    match kind with
    | 0 when len > 0 ->
        let pos = Int.min pos (len - 1) in
        let+ c = map Char.chr (int_range 0 255) in
        String.mapi (fun i x -> if i = pos then c else x) text
    | 1 when len > 0 ->
        let+ k = int_range 1 3 in
        let pos = Int.min pos (len - 1) in
        let stop = Int.min len (pos + k) in
        String.sub text 0 pos ^ String.sub text stop (len - stop)
    | _ ->
        let+ tok = token m in
        String.sub text 0 pos ^ tok ^ String.sub text pos (len - pos)
  in
  let* m, text = render_gen in
  let* rounds = int_range 1 4 in
  let rec go k text = if k = 0 then return text else mutate m text >>= go (k - 1) in
  let+ text = go rounds text
  and+ m = frequency [ (8, return m); (1, oneofl [ 0; -1; max_int ]) ] in
  (m, text)

let trace_parser_survives_mutation =
  qcheck ~count:2000 "trace_io: mutated traces never raise and agree with the reference"
    (QCheck.make ~print:print_trace
       ~shrink:(fun (m, text) -> QCheck.Iter.map (fun t -> (m, t)) (QCheck.Shrink.string text))
       mutated_gen)
    (fun (m, text) ->
      match W.Trace_io.of_string ~m text with
      | exception e -> QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e)
      | result -> same_result result (Trace_reference.of_string ~m text))

(* Traces the mutation property shrank to, each with the [m] it needs:
   with [m = max_int], [Sequence] once raised [Invalid_argument] from
   [Array.make] instead of returning an [Error]. *)
let trace_regressions () =
  List.iter
    (fun (file, m) ->
      match W.Trace_io.read ~filename:(Filename.concat "data" file) ~m with
      | Ok _ -> Alcotest.failf "%s accepted with m = %d" file m
      | Error _ -> ())
    [ ("m-beyond-array.csv", max_int) ]

let trace_reads_a_directory_as_an_error () =
  let dir = Sys.getcwd () in
  match W.Trace_io.read ~filename:dir ~m:4 with
  | Ok _ -> Alcotest.fail "a directory parsed as a trace"
  | Error msg ->
      if not (String.starts_with ~prefix:(dir ^ ": ") msg) then
        Alcotest.failf "error does not name the directory: %s" msg

(* [dcache solve --trace /dev/stdin] on a pipe: the trace arrives
   through a descriptor that cannot seek or report its length. *)
let trace_reads_a_pipe () =
  let exe = Filename.concat (Filename.concat ".." "bin") "dcache.exe" in
  if not (Sys.file_exists exe) then Alcotest.skip ();
  let spec =
    {
      W.Generator.m = 4;
      n = 20;
      arrival = W.Arrival.Poisson { rate = 1.0 };
      placement = W.Placement.Uniform_random;
    }
  in
  let seq = W.Generator.generate_seeded ~seed:3 spec in
  let text = W.Trace_io.to_string seq in
  let in_read, in_write = Unix.pipe ~cloexec:true () in
  let out_read, out_write = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe
      [| exe; "solve"; "--trace"; "/dev/stdin"; "-m"; "4" |]
      in_read out_write Unix.stderr
  in
  Unix.close in_read;
  Unix.close out_write;
  ignore (Unix.write_substring in_write text 0 (String.length text) : int);
  Unix.close in_write;
  let output = In_channel.input_all (Unix.in_channel_of_descr out_read) in
  Unix.close out_read;
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> Alcotest.failf "dcache solve on a pipe failed: %s" output);
  let opt = Offline_dp.cost (Offline_dp.solve (Cost_model.make ~mu:1.0 ~lambda:1.0 ()) seq) in
  let expected = Printf.sprintf "optimal cost: %.6f " opt in
  let lines = String.split_on_char '\n' output in
  if not (List.exists (String.starts_with ~prefix:expected) lines) then
    Alcotest.failf "expected %S in:\n%s" expected output

let poisson_spec placement =
  { W.Generator.m = 64; n = budget_n; arrival = W.Arrival.Poisson { rate = 1.0 }; placement }

let placements =
  [
    W.Placement.Uniform_random;
    W.Placement.Zipf { exponent = 1.0 };
    W.Placement.Mobility { stay = 0.9; ring = true };
    W.Placement.Mobility { stay = 0.7; ring = false };
    W.Placement.Round_robin;
    W.Placement.Multi_user { users = 3; stay = 0.85; ring = true };
  ]

(* The parse keeps its two columns (2 words per request, adopted by
   [Sequence.of_columns]) and nothing per line: every time is in the
   exact reader's domain and goes straight into its column.  2.02
   measured, so a boxed float per line (float_of_string for every
   field) fails the budget of 2.75. *)
let trace_parse_words_budget () =
  let seq =
    W.Generator.generate_seeded ~seed:1
      { (poisson_spec (W.Placement.Mobility { stay = 0.9; ring = true })) with m = 8 }
  in
  let text = W.Trace_io.to_string seq in
  let words = words_per_request ~n:budget_n (fun () -> W.Trace_io.of_string ~m:8 text) in
  if words > 2.75 then
    Alcotest.failf "Trace_io.of_string allocates %.2f words/request (budget 2.75)" words

(* The two columns and nothing else (2 words per request): the
   arrival gaps are drawn into the time column and summed there, and
   the mobility walkers compare their stay draw inside [Rng].  2.00-2.02
   over the six placements, so a budget of 3 fails on one more 2-word
   allocation per request in any of them. *)
let generator_words_budget () =
  List.iter
    (fun placement ->
      let words =
        words_per_request ~n:budget_n (fun () ->
            W.Generator.generate_seeded ~seed:1 (poisson_spec placement))
      in
      if words > 3.0 then
        Alcotest.failf "Generator.generate_seeded with %a allocates %.2f words/request (budget 3)"
          W.Placement.pp placement words)
    placements

(* Golden digests: a seed must generate the same workload in every
   release, for each arrival process and each placement. *)
let generator_golden_traces () =
  let digest arrival placement =
    let spec = { W.Generator.m = 8; n = 300; arrival; placement } in
    Digest.to_hex (Digest.string (W.Trace_io.to_string (W.Generator.generate_seeded ~seed:11 spec)))
  in
  List.iter
    (fun (name, arrival, expected) ->
      Alcotest.(check string) name expected (digest arrival W.Placement.Uniform_random))
    [
      ("uniform", W.Arrival.Uniform { gap = 0.5 }, "3588d4504ebdf368c79fdf87f5861cb8");
      ("poisson", W.Arrival.Poisson { rate = 2.0 }, "50d8169d125d0a2ddda5527ae1ded3cf");
      ( "pareto",
        W.Arrival.Pareto { shape = 1.5; scale = 0.25 },
        "2bcead90ba4fddbca747624d5498fa13" );
      ( "periodic",
        W.Arrival.Periodic { base_rate = 0.5; peak_rate = 4.0; period = 10.0 },
        "47e7c8126b4c1b9646a5d1620c3c0269" );
    ];
  List.iter
    (fun (name, placement, expected) ->
      Alcotest.(check string) name expected (digest (W.Arrival.Poisson { rate = 1.0 }) placement))
    [
      ("uniform", W.Placement.Uniform_random, "a1d1214349ce43dd7abdfb851a7f5f72");
      ("zipf", W.Placement.Zipf { exponent = 1.0 }, "95cab6190e7078c4f67f5ba37a25a5e8");
      ( "mobility-ring",
        W.Placement.Mobility { stay = 0.9; ring = true },
        "a98593a08e1b72f958559f0899a2366f" );
      ( "mobility-clique",
        W.Placement.Mobility { stay = 0.7; ring = false },
        "aea8d3073f4db3f4ffd9d9290934c10b" );
      ("round-robin", W.Placement.Round_robin, "42ebf9358996de5c51bdebd0ffc6ae63");
      ( "multi-user",
        W.Placement.Multi_user { users = 3; stay = 0.85; ring = true },
        "aa9dd88ca2bf2f087a5a82cb79c323a4" );
    ]

(* ------------------------------------------------------- ratio search *)

let ratio_search_respects_bound () =
  let model = Cost_model.make ~mu:1.0 ~lambda:2.0 () in
  let rng = Dcache_prelude.Rng.create 99 in
  let best = W.Ratio_search.search ~restarts:2 ~steps:300 ~rng ~m:3 ~n:15 model in
  Alcotest.(check bool) "ratio within the proven bound" true (best.ratio <= 3.0 +. 1e-9);
  Alcotest.(check bool) "ratio at least 1" true (best.ratio >= 1.0 -. 1e-9);
  check_float "consistent with its own instance"
    best.ratio
    (W.Ratio_search.evaluate model best.seq).W.Ratio_search.ratio

let ratio_search_beats_random_start () =
  let model = Cost_model.make ~mu:1.0 ~lambda:2.0 () in
  let rng = Dcache_prelude.Rng.create 5 in
  let best = W.Ratio_search.search ~restarts:3 ~steps:500 ~rng ~m:3 ~n:20 model in
  (* the expiry chaser seeds the search, so the result can never be
     worse than the best adversarial family *)
  let chaser = W.Ratio_search.evaluate model (W.Adversary.expiry_chaser model ~m:3 ~n:20) in
  check_le "search result >= chaser" chaser.ratio best.ratio

let ratio_search_deterministic () =
  let model = Cost_model.make ~mu:1.0 ~lambda:2.0 () in
  let a = W.Ratio_search.search ~restarts:2 ~steps:200 ~rng:(Dcache_prelude.Rng.create 1) ~m:2 ~n:10 model in
  let b = W.Ratio_search.search ~restarts:2 ~steps:200 ~rng:(Dcache_prelude.Rng.create 1) ~m:2 ~n:10 model in
  check_float "same seed, same result" a.ratio b.ratio

let ratio_search_rejects_degenerate () =
  let model = Cost_model.unit in
  Alcotest.(check bool) "m = 1" true
    (try ignore (W.Ratio_search.search ~rng:(Dcache_prelude.Rng.create 1) ~m:1 ~n:5 model); false
     with Invalid_argument _ -> true)

(* ------------------------------------------------- the read window *)

(* [Trace_io.read] reads a file through a window of this many bytes *)
let window = 65_536

(* [read] on a file of [text] gives what [of_string] gives on [text],
   its error behind the file name, and both agree with the reference *)
let read_agrees ~m text =
  let parsed = W.Trace_io.of_string ~m text in
  with_temp_file text (fun filename ->
      match (W.Trace_io.read ~filename ~m, parsed) with
      | Ok read, Ok parsed ->
          if Sequence.m read <> Sequence.m parsed || Sequence.requests read <> Sequence.requests parsed
          then QCheck.Test.fail_report "read and of_string parsed different requests"
      | Error read, Error parsed ->
          if read <> filename ^ ": " ^ parsed then
            QCheck.Test.fail_reportf "read: %S, of_string: %S" read parsed
      | Ok _, Error msg -> QCheck.Test.fail_reportf "only of_string rejected it: %s" msg
      | Error msg, Ok _ -> QCheck.Test.fail_reportf "only read rejected it: %s" msg);
  if not (same_result parsed (Trace_reference.of_string ~m text)) then
    QCheck.Test.fail_report "of_string disagrees with the reference";
  parsed

(* [text] behind a comment line that puts the window's edge [offset]
   bytes into [text] *)
let behind_edge offset text = "#" ^ String.make (window - offset - 2) '-' ^ "\n" ^ text

let edge_gen =
  let open QCheck.Gen in
  let* m, text = oneof [ render_gen; mutated_gen ] in
  let+ offset = int_range 0 (String.length text) in
  (m, behind_edge offset text)

let read_across_the_window_edge =
  qcheck ~count:300 "trace_io: read agrees with of_string wherever the window edge falls"
    (QCheck.make
       ~print:(fun (m, text) ->
         print_trace (m, String.sub text (window - 40) (String.length text - window + 40)))
       edge_gen)
    (fun (m, text) ->
      ignore (read_agrees ~m text : (Sequence.t, string) result);
      true)

(* Each case must parse, to the given number of requests *)
let read_window_edge_cases () =
  let long_field = String.make (3 * window) '0' ^ "1" in
  let request = "0,1.5" in
  List.iter
    (fun (what, text, n) ->
      match read_agrees ~m:4 text with
      | Ok seq -> Alcotest.(check int) what n (Sequence.n seq)
      | Error msg -> Alcotest.failf "%s: %s" what msg)
    [
      ("a line longer than the window", long_field ^ ",0.5\n2,1\n" ^ long_field ^ ",3\n", 3);
      ( "a comment longer than the window",
        "#" ^ String.make (2 * window) 'x' ^ "\n0,1\n1,2",
        2 );
      ( "a CRLF whose '\\r' ends the window",
        behind_edge (String.length request + 1) (request ^ "\r\n1,2.5\r\n"),
        2 );
      ("a file ending at the edge without a final newline", behind_edge 5 "1,2.5", 1);
      ("a file ending at the edge with a final newline", behind_edge 6 "1,2.5\n", 1);
      ("an empty file", "", 0);
    ]

(* [read] on a file, as dcache reads its trace: the two columns (2)
   and the 64 KB window (0.41 at n = 20 000): 2.43, no time boxed.  A
   budget of 3.25 fails on one more 2-word allocation per line, such
   as float_of_string's box, or on the file's text held whole (about
   2.6 words per request). *)
let read_words_budget () =
  List.iter
    (fun (name, seq) ->
      with_temp_file (W.Trace_io.to_string seq) (fun filename ->
          let m = Sequence.m seq in
          let words =
            words_per_request ~n:budget_n (fun () -> W.Trace_io.read ~filename ~m)
          in
          if words > 3.25 then
            Alcotest.failf "Trace_io.read on %s allocates %.2f words/request (budget 3.25)" name
              words))
    (budget_workloads ())

(* A [nan] stay is no probability: the walker would never move *)
let nan_stay_rejected () =
  List.iter
    (fun (what, placement, n) ->
      Alcotest.(check bool) what true
        (try ignore (W.Placement.generate (rng ()) placement ~m:4 ~n); false
         with Invalid_argument _ -> true))
    [
      ("mobility on a ring", W.Placement.Mobility { stay = nan; ring = true }, 0);
      ("mobility on a clique", W.Placement.Mobility { stay = nan; ring = false }, 10);
      ("multi-user", W.Placement.Multi_user { users = 2; stay = nan; ring = true }, 10);
    ]

(* ------------------------------------------------------ the time reader *)

(* What a one-request trace whose time field is [text] parses to, on
   line [lineno]: float_of_string's value, or the syntax error a field
   float_of_string rejects has always given.  A value the sequence
   rejects is compared through its message, which prints it exactly. *)
let expected_time ~lineno text =
  match float_of_string_opt text with
  | None -> Error (Printf.sprintf "line %d: cannot parse %S" lineno ("0," ^ text))
  | Some v ->
      Result.map
        (fun seq -> Sequence.time seq 1)
        (Sequence.of_columns ~m:1 ~servers:[| 0 |] ~times:[| v |])

let same_time what expected parsed =
  match (expected, Result.map (fun seq -> Sequence.time seq 1) parsed) with
  | Ok v, Ok t ->
      if Int64.bits_of_float v <> Int64.bits_of_float t then
        QCheck.Test.fail_reportf "%s read %h, float_of_string %h" what t v
  | Error e, Error msg -> if e <> msg then QCheck.Test.fail_reportf "%s: %S, not %S" what msg e
  | Ok v, Error msg -> QCheck.Test.fail_reportf "%s: %S, float_of_string read %h" what msg v
  | Error e, Ok t -> QCheck.Test.fail_reportf "%s read %h, not %S" what t e

(* [digits] behind [sign], with a point after [point] of them and the
   exponent [exp] behind [e] *)
let decimal_text ~sign ~digits ~point ~exp ~e ~plus =
  let mantissa =
    match point with
    | None -> digits
    | Some p -> String.sub digits 0 p ^ "." ^ String.sub digits p (String.length digits - p)
  in
  let exponent =
    match exp with
    | None -> ""
    | Some x -> Printf.sprintf "%c%s%d" e (if plus && x >= 0 then "+" else "") x
  in
  sign ^ mantissa ^ exponent

let sign_gen = QCheck.Gen.oneofl [ ""; ""; "+"; "-" ]

let e_gen = QCheck.Gen.oneofl [ 'e'; 'E' ]

(* random doubles as printf writes them *)
let printed_time_gen =
  let open QCheck.Gen in
  let* x = map2 ldexp (float_range 1.0 2.0) (int_range (-70) 70) in
  let+ print =
    oneofl
      [
        Printf.sprintf "%.15g";
        Printf.sprintf "%.16g";
        Printf.sprintf "%.17g";
        Printf.sprintf "%.18g";
        Printf.sprintf "%.6f";
        Printf.sprintf "%.3e";
        Printf.sprintf "%.17e";
      ]
  in
  print x

(* 1 to 20 digits, the point anywhere, exponents from -40 to 40 *)
let digit_text_gen =
  let open QCheck.Gen in
  let* k = int_range 1 20 in
  let* digits = string_size ~gen:numeral (return k) in
  let* point = opt (int_range 0 k) and* exp = opt (int_range (-40) 40) in
  let+ sign = sign_gen and+ e = e_gen and+ plus = bool in
  decimal_text ~sign ~digits ~point ~exp ~e ~plus

(* k + j / 2^e for odd j, exactly halfway between two doubles when k
   is in [2^(53-e), 2^(54-e)), written out in decimal *)
let halfway_gen =
  let open QCheck.Gen in
  let* e = int_range 1 8 in
  let* k = map (fun r -> (1 lsl (53 - e)) + r) (int_bound ((1 lsl (53 - e)) - 1)) in
  let+ j = map (fun r -> (2 * r) + 1) (int_bound ((1 lsl (e - 1)) - 1)) in
  let pow5 = int_of_float (5.0 ** float_of_int e) in
  Printf.sprintf "%d.%0*d" k e (j * pow5)

(* the domain's edges: a decimal exponent q of +-22 or +-23 (after the
   point moves behind the last digit), up to 19 significant digits,
   leading zeros *)
let exponent_edge_gen =
  let open QCheck.Gen in
  let* q = oneofl [ -23; -22; 22; 23 ]
  and* significant = oneofl [ 1; 15; 16; 17; 18; 19 ]
  and* lead = oneofl [ 0; 0; 1; 3 ] in
  let* first = char_range '1' '9'
  and* rest = string_size ~gen:numeral (return (significant - 1)) in
  let digits = String.make lead '0' ^ String.make 1 first ^ rest in
  let k = String.length digits in
  let* point = opt (int_range 0 k) in
  let fraction = match point with None -> 0 | Some p -> k - p in
  let+ sign = sign_gen and+ e = e_gen and+ plus = bool in
  decimal_text ~sign ~digits ~point ~exp:(Some (q + fraction)) ~e ~plus

(* texts only float_of_string reads, or nothing reads *)
let outside_texts =
  [
    "0x1.8p+0"; "1_000.5"; "nan"; "inf"; "-inf"; "1e"; "."; "+"; ""; "1e+"; "e5"; "1.5x"; "1..5";
    "-0"; "+0.0e7"; "1e400"; "0.0000000000000000000000000001"; "12345678901234567890";
  ]

let time_text_gen =
  QCheck.Gen.(
    frequency
      [
        (6, printed_time_gen);
        (6, digit_text_gen);
        (4, halfway_gen);
        (3, exponent_edge_gen);
        (1, oneofl outside_texts);
      ])

(* Every text through [of_string]; one in 50 also through [read],
   behind a comment line that puts the window's edge inside it *)
let time_reads_as_float_of_string =
  qcheck ~count:10_000 "trace_io: every time text reads as float_of_string reads it"
    (QCheck.make
       ~print:(fun (text, via_read) ->
         Printf.sprintf "%S%s" text (if via_read then " (read)" else ""))
       QCheck.Gen.(pair time_text_gen (map (fun k -> k = 0) (int_bound 49))))
    (fun (text, via_read) ->
      let line = "0," ^ text in
      same_time "of_string" (expected_time ~lineno:1 text) (W.Trace_io.of_string ~m:1 line);
      if via_read then
        with_temp_file
          (behind_edge (2 + (String.length text / 2)) line)
          (fun filename ->
            same_time "read"
              (Result.map_error (fun msg -> filename ^ ": " ^ msg) (expected_time ~lineno:2 text))
              (W.Trace_io.read ~filename ~m:1));
      true)

(* The ordering error prints each time as the shortest of %.15g,
   %.16g and %.17g that reads back to it: two different times never
   print alike *)
let ordering_error_shows_exact_times () =
  (match W.Trace_io.of_string ~m:2 "server,time\n0,1.0000002\n1,1.0000001\n" with
  | Ok _ -> Alcotest.fail "a decreasing time was accepted"
  | Error msg ->
      Alcotest.(check string)
        "message" "Sequence: request 2 at time 1.0000001 does not strictly follow 1.0000002" msg);
  let module Rng = Dcache_prelude.Rng in
  let rng = Rng.create 17 in
  for _ = 1 to 1000 do
    let later = ldexp (Rng.float_in rng 1.0 2.0) (Rng.int rng 80 - 40) in
    let earlier = Float.pred later in
    match Sequence.of_columns ~m:1 ~servers:[| 0; 0 |] ~times:[| later; earlier |] with
    | Ok _ -> Alcotest.fail "a decreasing time was accepted"
    | Error msg ->
        Scanf.sscanf msg "Sequence: request 2 at time %s does not strictly follow %s" (fun a b ->
            if a = b then Alcotest.failf "%h and %h both print as %s" earlier later a;
            List.iter
              (fun (text, x) ->
                if Int64.bits_of_float (float_of_string text) <> Int64.bits_of_float x then
                  Alcotest.failf "%s does not read back as %h" text x)
              [ (a, earlier); (b, later) ])
  done

let suite =
  [
    case "arrival: strictly increasing times" arrivals_strictly_increasing;
    case "arrival: uniform grid" uniform_arrival_exact;
    case "arrival: poisson rate controls density" poisson_rate_controls_density;
    case "arrival: rejects bad parameters" arrival_rejects_bad_params;
    case "placement: servers in range" placements_in_range;
    case "placement: zipf skew" zipf_skews_towards_low_ranks;
    case "placement: zipf exponent 0 is uniform" zipf_zero_exponent_is_uniform;
    case "placement: mobility stickiness" mobility_high_stay_is_sticky;
    case "placement: ring moves are adjacent" mobility_ring_moves_are_adjacent;
    case "placement: round robin cycles" round_robin_cycles;
    case "placement: single-server mobility" single_server_mobility;
    generator_produces_valid_sequences;
    case "generator: deterministic in the seed" generator_deterministic_in_seed;
    case "generator: standard suite shape" standard_suite_shape;
    case "adversary: expiry chaser gaps exceed the window" adversary_gaps;
    case "adversary: ping-pong alternates" adversary_ping_pong_two_servers;
    case "adversary: rejects m = 1" adversary_rejects_degenerate;
    case "adversary: edge and burst families stress SC" adversary_families_stress_sc;
    case "workload: spec and stats pretty-print" spec_and_stats_pretty_print;
    trace_roundtrip;
    case "trace_io: comments and headers" trace_parses_comments_and_header;
    case "trace_io: rejects malformed input" trace_rejects_garbage;
    case "trace_io: file roundtrip" trace_file_roundtrip;
    trace_write_matches_to_string;
    trace_parser_matches_reference;
    trace_parser_survives_mutation;
    case "trace_io: shrunk regression traces" trace_regressions;
    case "trace_io: a directory is an error naming it" trace_reads_a_directory_as_an_error;
    case "trace_io: dcache solve reads a pipe" trace_reads_a_pipe;
    case "trace_io: parse allocation budget" trace_parse_words_budget;
    case "generator: allocation budget per placement" generator_words_budget;
    case "generator: golden trace digests" generator_golden_traces;
    case "ratio_search: bound and consistency" ratio_search_respects_bound;
    case "ratio_search: never worse than its seeds" ratio_search_beats_random_start;
    case "ratio_search: deterministic" ratio_search_deterministic;
    case "ratio_search: rejects m = 1" ratio_search_rejects_degenerate;
    case "arrival: periodic thinning is valid" periodic_arrival_valid;
    case "arrival: periodic rejects bad rates" periodic_rejects_bad_rates;
    case "placement: multi-user range and coverage" multi_user_in_range_and_local;
    case "placement: single frozen walker" multi_user_one_user_is_mobility_like;
    read_across_the_window_edge;
    case "trace_io: read handles the window's edge cases" read_window_edge_cases;
    case "trace_io: read allocation budget on a file" read_words_budget;
    case "placement: a nan stay is rejected" nan_stay_rejected;
    time_reads_as_float_of_string;
    case "trace_io: the ordering error shows both times exactly" ordering_error_shows_exact_times;
  ]
