(* The end-to-end ledger: every user path on one workload, in ns and
   words per request, with a traced per-layer split.  See README.md.

     ledger.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]
     ledger.exe --smoke BENCHMARK.json

   The last line of stdout is one JSON object: {"correct", "attempted",
   "failed", "metrics"}, the metrics being the end-to-end ones with
   --trace 0 and the per-layer ones with --trace 1. *)

open Dcache_core
module Obs = Dcache_obs.Obs
module Arrival = Dcache_workload.Arrival
module Placement = Dcache_workload.Placement
module Json = Dcache_bench_common.Bench_json

(* ---------------------------------------------------------- workloads *)

type workload = { name : string; m : int; arrival : Arrival.t; placement : Placement.t }

(* The CLI defaults mu = lambda = 1, so delta_t = 1.  Why each workload
   is here: README.md. *)
let workloads =
  [
    {
      name = "mobility-ring-m8";
      m = 8;
      arrival = Arrival.Poisson { rate = 2.0 };
      placement = Placement.Mobility { stay = 0.9; ring = true };
    };
    {
      name = "zipf-m64";
      m = 64;
      arrival = Arrival.Poisson { rate = 1.0 };
      placement = Placement.Zipf { exponent = 1.0 };
    };
    {
      name = "bursty-m16";
      m = 16;
      arrival = Arrival.Pareto { shape = 1.5; scale = 0.25 };
      placement = Placement.Uniform_random;
    };
    (* [dcache generate] and [dcache serve-metrics] at their defaults *)
    {
      name = "serve-batch";
      m = 4;
      arrival = Arrival.Poisson { rate = 1.0 };
      placement = Placement.Uniform_random;
    };
  ]

let model = Cost_model.make ~mu:1.0 ~lambda:1.0 ()

type config = {
  n : int; (* requests per trace *)
  batches : int; (* serve batches per execution *)
  setups : int; (* setup_s is the median of this many set-ups *)
  min_rounds : int;
  seconds : float; (* rounds continue until this much time has passed *)
}

let measured seconds = { n = 100_000; batches = 50; setups = 3; min_rounds = 3; seconds }
let smoke_config = { n = 2000; batches = 2; setups = 1; min_rounds = 3; seconds = 0.0 }

(* ------------------------------------------------------------ samples *)

(* Named sample series in first-recorded order. *)
type store = { mutable names : string list; series : (string, string * float list ref) Hashtbl.t }

let store () = { names = []; series = Hashtbl.create 64 }

let sample st name unit_ v =
  match Hashtbl.find_opt st.series name with
  | Some (_, values) -> values := v :: !values
  | None ->
      st.names <- name :: st.names;
      Hashtbl.replace st.series name (unit_, ref [ v ])

let summaries st =
  List.rev_map
    (fun name ->
      match Hashtbl.find_opt st.series name with
      | Some (unit_, values) -> (name, unit_, Summary.of_list !values)
      | None -> invalid_arg name)
    st.names

(* --------------------------------------------------------------- runs *)

type run = {
  w : workload;
  seed : int;
  cfg : config;
  env : Paths.env;
  mutable rounds : int;
  mutable attempted : int;
  mutable failed : int;
  mutable ref_opt : float; (* Naive_dp on the trace *)
  mutable ref_sc : float; (* Online_sc.run on the trace *)
  e2e : store; (* reported by --trace 0 *)
  layer : store; (* reported by --trace 1 *)
  mutable residual_max : float;
}

let out_dir = Filename.concat "_build" "ledger"

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let create_run ~cfg ~seed w =
  mkdir_p out_dir;
  let spans = Spans.create 65536 in
  {
    w;
    seed;
    cfg;
    env =
      {
        Paths.model;
        m = w.m;
        trace_file = Filename.concat out_dir (Printf.sprintf "%s-seed%d.csv" w.name seed);
        n = cfg.n;
        seed;
        batches = cfg.batches;
        out = Buffer.create (1 lsl 20);
        probe = Paths.probe spans;
        latency = Latency.create ();
      };
    rounds = 0;
    attempted = 0;
    failed = 0;
    ref_opt = nan;
    ref_sc = nan;
    e2e = store ();
    layer = store ();
    residual_max = 0.0;
  }

(* ------------------------------------------------------------- checks *)

let fail r path msg =
  r.failed <- r.failed + 1;
  Printf.printf "FAILED %s %s seed %d: %s\n%!" r.w.name (Paths.name path) r.seed msg

let same a b = Dcache_prelude.Float_cmp.approx_eq ~eps:1e-9 a b

let check r path result =
  let failure =
    match (result : (Paths.outcome, string) result) with
    | Error msg -> Some msg
    | Ok (Solved { opt; _ } | Ran_online { opt; _ } | Audited { opt; _ })
      when not (same opt r.ref_opt) ->
        Some (Printf.sprintf "optimum %.17g, Naive_dp %.17g" opt r.ref_opt)
    | Ok (Solved { schedule; opt }) when not (same (Schedule.cost model schedule) opt) ->
        let priced = Schedule.cost model schedule in
        Some (Printf.sprintf "schedule prices at %.17g, reported %.17g" priced opt)
    | Ok (Ran_online { sc; opt; _ })
      when not (Dcache_prelude.Float_cmp.approx_le sc (Online_sc.competitive_bound *. opt)) ->
        Some (Printf.sprintf "SC %.17g exceeds 3 x OPT %.17g" sc opt)
    | Ok (Ran_online { sc = online; _ } | Audited { online; _ }) when not (same online r.ref_sc) ->
        Some (Printf.sprintf "online cost %.17g, Online_sc.run %.17g" online r.ref_sc)
    | Ok (Audited { violations; _ }) when violations > 0 ->
        Some (Printf.sprintf "%d bound violations" violations)
    | Ok (Served { mismatches; witness; _ }) when mismatches > 0 ->
        Some (Printf.sprintf "%d items differ, %s" mismatches witness)
    | Ok _ -> None
  in
  Option.iter (fail r path) failure

(* [Schedule.validate] scans every piece per request, so its cost grows
   with the square of the trace (about a minute at n = 100 000): it
   checks the schedule the solve path's calls give for the first
   [validated_prefix] requests of the trace file. *)
let validated_prefix = 5000

let validate_prefix r =
  r.attempted <- r.attempted + 1;
  match Paths.read_trace r.env with
  | exception Paths.Failed msg -> fail r Paths.Solve msg
  | seq -> (
      let prefix = Sequence.sub seq (Int.min (Sequence.n seq) validated_prefix) in
      let schedule = Offline_dp.schedule (Solve_cache.solve model prefix) in
      match Schedule.validate prefix schedule with
      | Ok () -> ()
      | Error violations ->
          fail r Paths.Solve ("invalid schedule: " ^ String.concat "; " violations))

(* ---------------------------------------------------------- execution *)

let c_pivot_slots = Obs.counter "streaming_dp.pivot_slots"
let c_grow = Obs.counter "streaming_dp.grow"
let sp_push = Obs.span_name "streaming_dp.push"

type execution = {
  ns : int;
  words : float;
  minor_gcs : int;
  major_gcs : int;
  result : (Paths.outcome, string) result;
}

(* One path execution, from the state a fresh dcache process starts in:
   empty solve memo, zeroed registry, the subcommand's sink, compacted
   heap.  All of that happens before the clock starts. *)
let execute r path ~traced =
  let env = r.env and p = r.env.probe and rep = r.attempted in
  Solve_cache.clear ();
  Obs.reset ();
  Obs.set_sink
    (match path with
    | Paths.Solve | Paths.Online -> Obs.Noop
    | Paths.Audit | Paths.Serve -> Obs.Recording (Obs.recorder ()));
  Buffer.clear env.out;
  Latency.clear env.latency;
  Paths.arm p path ~traced ~rep;
  Gc.compact ();
  let gc0 = Gc.quick_stat () in
  let w0 = Meter.words () in
  let t0 = Meter.now () in
  if traced then
    p.path_span <-
      Spans.add p.spans ~name:(Paths.name path) ~start:t0 ~stop:t0 ~parent:(-1) ~rep;
  let result = try Ok (Paths.run env path) with Paths.Failed msg -> Error msg in
  let t1 = Meter.now () in
  let w1 = Meter.words () in
  Spans.set_stop p.spans p.path_span t1;
  let gc1 = Gc.quick_stat () in
  r.attempted <- r.attempted + 1;
  check r path result;
  {
    ns = t1 - t0;
    words = w1 -. w0 -. Meter.probe_words;
    minor_gcs = gc1.minor_collections - gc0.minor_collections;
    major_gcs = gc1.major_collections - gc0.major_collections;
    result;
  }

let per_req r path x = x /. float_of_int (Paths.requests r.env path)

(* Feed latencies of an untraced audit execution. *)
let record_latencies r =
  let lat = r.env.latency and st = r.layer in
  sample st "audit.feed_p50_ns" "ns" (float_of_int (Latency.quantile lat 0.50));
  sample st "audit.feed_p99_ns" "ns" (float_of_int (Latency.quantile lat 0.99));
  sample st "audit.feed_p999_ns" "ns" (float_of_int (Latency.quantile lat 0.999));
  sample st "audit.feed_max_us" "us" (float_of_int lat.max /. 1000.0);
  sample st "audit.feed_stalls" "count" (float_of_int (Latency.count_above lat ~above_ns:100_000))

(* Wall times go with the per-layer metrics: on a shared host they
   drift with the neighbours' load by more than any bound worth gating
   on (README.md, "Noise"). *)
let untraced r path =
  let x = execute r path ~traced:false in
  let name = Paths.name path in
  sample r.layer (name ^ ".ns_per_req") "ns/request" (per_req r path (float_of_int x.ns));
  sample r.e2e (name ^ ".words_per_req") "words/request" (per_req r path x.words);
  if path = Paths.Audit then record_latencies r;
  x.ns

let traced r path ~untraced_ns =
  let memo0 = Solve_cache.stats () in
  let x = execute r path ~traced:true in
  let p = r.env.probe and st = r.layer and name = Paths.name path in
  let requests = float_of_int (Paths.requests r.env path) in
  let busy = ref 0 in
  Array.iteri
    (fun i layer ->
      busy := !busy + p.ns.(i);
      sample st (layer ^ ".ns_per_req") "ns/request" (float_of_int p.ns.(i) /. requests);
      sample st (layer ^ ".words_per_req") "words/request" (p.words.(i) /. requests))
    p.names;
  let residual = 1.0 -. (float_of_int !busy /. float_of_int x.ns) in
  r.residual_max <- Float.max r.residual_max residual;
  sample st (name ^ ".split_residual") "fraction" residual;
  sample st (name ^ ".trace_overhead") "fraction"
    ((float_of_int x.ns /. float_of_int untraced_ns) -. 1.0);
  sample st (name ^ ".gc.minor_per_kreq") "count/kreq"
    (float_of_int x.minor_gcs *. 1000.0 /. requests);
  sample st (name ^ ".gc.major_per_run") "count" (float_of_int x.major_gcs);
  match x.result with
  | Ok (Paths.Solved { schedule; _ }) ->
      sample st "solve.transfers_per_req" "count/request"
        (float_of_int (Schedule.num_transfers schedule) /. requests)
  | Ok (Paths.Ran_online { transfers; _ }) ->
      sample st "online.transfers_per_req" "count/request" (float_of_int transfers /. requests)
  | Ok (Paths.Audited _) ->
      sample st "audit.streaming_dp.pivot_slots_per_req" "count/request"
        (float_of_int (Obs.counter_value c_pivot_slots) /. requests);
      sample st "audit.streaming_dp.grows" "count" (float_of_int (Obs.counter_value c_grow));
      sample st "audit.obs_push_agreement" "ratio"
        (float_of_int (Dcache_obs.Histo_log.sum (Obs.span_histo sp_push)) /. float_of_int p.ns.(2))
  | Ok (Paths.Served { exposition_bytes; _ }) ->
      let batches = float_of_int r.env.batches in
      let memo = Solve_cache.stats () in
      let hits = memo.hits - memo0.hits and misses = memo.misses - memo0.misses in
      sample st "serve.solve_cache.hit_ratio" "fraction"
        (float_of_int hits /. float_of_int (hits + misses));
      sample st "serve.prometheus.ns_per_batch" "ns/batch" (float_of_int p.ns.(4) /. batches);
      sample st "serve.prometheus.bytes_per_batch" "bytes/batch"
        (float_of_int exposition_bytes /. batches)
  | Error _ -> ()

(* ------------------------------------------------------ set-up, rounds *)

(* Input generation, trace write, the references, and one untimed
   checked warm pass over every path. *)
let setup r =
  let t0 = Meter.now () in
  let seq =
    Dcache_workload.Generator.generate_seeded ~seed:r.seed
      {
        Dcache_workload.Generator.m = r.w.m;
        n = r.cfg.n;
        arrival = r.w.arrival;
        placement = r.w.placement;
      }
  in
  Dcache_workload.Trace_io.write ~filename:r.env.trace_file seq;
  r.ref_opt <- Dcache_baselines.Naive_dp.solve model seq;
  r.ref_sc <- (Online_sc.run model seq).total_cost;
  List.iter (fun path -> ignore (execute r path ~traced:false : execution)) Paths.all;
  float_of_int (Meter.now () - t0) /. 1e9

(* Path order rotates every round, so no path always runs first. *)
let rotation k =
  let k = k mod List.length Paths.all in
  List.filteri (fun i _ -> i >= k) Paths.all @ List.filteri (fun i _ -> i < k) Paths.all

(* A round runs every path once untraced; with [trace] a traced
   execution of each path follows its untraced one. *)
let rounds r ~trace =
  let start = Meter.now () in
  let budget = int_of_float (r.cfg.seconds *. 1e9) in
  let rec loop k =
    List.iter
      (fun path ->
        if trace then traced r path ~untraced_ns:(untraced r path)
        else ignore (untraced r path : int))
      (rotation k);
    r.rounds <- k + 1;
    if r.rounds < r.cfg.min_rounds || Meter.now () - start < budget then loop (k + 1)
  in
  loop 0

let run_workload ~cfg ~seed ~trace w =
  let r = create_run ~cfg ~seed w in
  let setups = List.init (if trace then 1 else cfg.setups) (fun _ -> setup r) in
  if not trace then begin
    List.iter (sample r.e2e "setup_s" "s") setups;
    (* read after the set-ups, which run every path a fixed number of
       times: at exit the peak would also depend on how many rounds fit
       in --seconds *)
    sample r.e2e "top_heap_mb" "MB"
      (float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1048576.0)
  end;
  (* after the heap reading: the validator's own peak is not a path's *)
  validate_prefix r;
  rounds r ~trace;
  if trace then
    Spans.write_chrome r.env.probe.spans
      ~path:(Filename.concat out_dir (Printf.sprintf "%s-seed%d.trace.json" w.name seed));
  r

(* ------------------------------------------------------------- report *)

(* The commit, read from .git without running git; "unknown" outside a
   clone. *)
let git_rev () =
  let read path =
    try Some (String.trim (In_channel.with_open_text path In_channel.input_all))
    with Sys_error _ -> None
  in
  match read (Filename.concat ".git" "HEAD") with
  | Some head when String.starts_with ~prefix:"ref: " head -> (
      let ref_name = String.sub head 5 (String.length head - 5) in
      match read (Filename.concat ".git" ref_name) with Some rev -> rev | None -> ref_name)
  | Some rev -> rev
  | None -> "unknown"

let emitted r ~trace = summaries (if trace then r.layer else r.e2e)

let print_report r ~trace =
  let metrics = emitted r ~trace in
  Printf.printf
    "# dcache ledger: workload=%s seed=%d n=%d m=%d rounds=%d trace=%d rev=%s nproc=%d ocaml=%s\n"
    r.w.name r.seed r.cfg.n r.w.m r.rounds (Bool.to_int trace) (git_rev ())
    (Domain.recommended_domain_count ()) Sys.ocaml_version;
  Printf.printf "%-40s %-14s %7s %14s %14s %14s %14s %14s\n" "metric" "unit" "samples" "median"
    "q1" "q3" "min" "max";
  List.iter
    (fun (name, unit_, (s : Summary.t)) ->
      Printf.printf "%-40s %-14s %7d %14.6g %14.6g %14.6g %14.6g %14.6g\n" name unit_ s.samples
        s.median s.q1 s.q3 s.min s.max)
    metrics;
  let b = Buffer.create 4096 in
  Printf.bprintf b "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {"
    (r.failed = 0) r.attempted r.failed;
  List.iteri
    (fun i (name, unit_, (s : Summary.t)) ->
      Printf.bprintf b "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}"
        (if i > 0 then ", " else "")
        name s.median unit_)
    metrics;
  Buffer.add_string b "}}";
  print_endline (Buffer.contents b)

(* -------------------------------------------------------------- smoke *)

(* Every workload at n = 2000, both passes: no failed check, the emitted
   metric names are exactly the declared ones, and every layer split
   leaves at most 5% of its path unaccounted for. *)
let smoke declared_file =
  let doc =
    match Json.of_string (In_channel.with_open_text declared_file In_channel.input_all) with
    | Ok doc -> doc
    | Error msg ->
        prerr_endline (declared_file ^ ": " ^ msg);
        exit 1
  in
  let declared key =
    Json.to_list (Json.member key doc)
    |> Option.value ~default:[]
    |> List.filter_map (fun m -> Json.to_str (Json.member "name" m))
    |> List.sort String.compare
  in
  let names metrics = List.sort String.compare (List.map (fun (name, _, _) -> name) metrics) in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  List.iter
    (fun w ->
      List.iter
        (fun trace ->
          let r = run_workload ~cfg:smoke_config ~seed:1 ~trace w in
          let key = if trace then "per_layer" else "end_to_end" in
          if r.failed > 0 then problem "%s: %d of %d checks failed" w.name r.failed r.attempted;
          let got = names (emitted r ~trace) and want = declared key in
          List.iter
            (fun n -> if not (List.mem n want) then problem "%s emits %s, not in %s" w.name n key)
            got;
          List.iter
            (fun n -> if not (List.mem n got) then problem "%s declares %s, not emitted" key n)
            want;
          if trace && r.residual_max > 0.05 then
            problem "%s: a layer split leaves %.1f%% of its path unaccounted" w.name
              (100.0 *. r.residual_max))
        [ false; true ])
    workloads;
  match List.rev !problems with
  | [] -> print_endline "ledger smoke: ok"
  | ps ->
      List.iter prerr_endline ps;
      exit 1

(* --------------------------------------------------------------- main *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let smoke_file = ref "" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME one of the workloads below");
      ("--seed", Arg.Set_int seed, "N input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S measure for S seconds after set-up (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end pass (0, default) or traced pass (1)");
      ("--smoke", Arg.Set_string smoke_file, "FILE smoke-test every workload against FILE's names");
    ]
  in
  let usage =
    "ledger.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]\nworkloads: "
    ^ String.concat ", " (List.map (fun w -> w.name) workloads)
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !smoke_file <> "" then smoke !smoke_file
  else
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | None ->
        prerr_endline (Arg.usage_string spec usage);
        exit 2
    | Some w ->
        if !trace <> 0 && !trace <> 1 then (prerr_endline "--trace takes 0 or 1"; exit 2);
        let trace = !trace = 1 in
        let r = run_workload ~cfg:(measured !seconds) ~seed:!seed ~trace w in
        print_report r ~trace
