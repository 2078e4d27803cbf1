(* The four user paths, replayed through the library calls the dcache
   subcommands make: [dcache solve], [dcache online] and [dcache audit]
   on a trace file, and the batch loop of [dcache serve-metrics].  What
   the subcommands print goes to a buffer instead of stdout, and the
   serve loop renders one exposition per batch where the subcommand
   would answer a scrape.

   Layers are timed only from outside, around calls into their public
   functions.  With [traced = false] the probes do nothing. *)

open Dcache_core
module Obs = Dcache_obs.Obs
module Obs_audit = Dcache_obs.Audit
module Auditor = Dcache_sim.Auditor
module Generator = Dcache_workload.Generator
module Trace_io = Dcache_workload.Trace_io

type t = Solve | Online | Audit | Serve

let all = [ Solve; Online; Audit; Serve ]
let name = function Solve -> "solve" | Online -> "online" | Audit -> "audit" | Serve -> "serve"

(* Layer names, qualified by path; a layer's id is its index. *)
let layers = function
  | Solve -> [| "solve.trace_io"; "solve.solve_cache"; "solve.schedule"; "solve.pricing" |]
  | Online -> [| "online.trace_io"; "online.online_sc"; "online.offline_dp" |]
  | Audit ->
      [|
        "audit.trace_io";
        "audit.online_sc";
        "audit.streaming_dp";
        "audit.obs_audit";
        "audit.finish";
      |]
  | Serve ->
      [|
        "serve.generator";
        "serve.auditor";
        "serve.solve_cache";
        "serve.gauges";
        "serve.prometheus";
      |]

let max_layers = 5

(* [dcache audit] and [dcache serve-metrics] defaults *)
let window_size = 64
let serve_batch_size = 2000
let serve_items = 4

type probe = {
  spans : Spans.t;
  mutable traced : bool;
  mutable rep : int;
  mutable path_span : int;
  mutable names : string array;
  ns : int array; (* busy ns per layer in the current execution *)
  words : float array; (* words allocated per layer *)
  mutable t0 : int;
  w0 : float array; (* one cell: a float field of this record would be boxed on every store *)
}

let probe spans =
  {
    spans;
    traced = false;
    rep = 0;
    path_span = -1;
    names = [||];
    ns = Array.make max_layers 0;
    words = Array.make max_layers 0.0;
    t0 = 0;
    w0 = [| 0.0 |];
  }

(* Outside timing: arm the probe for one execution of [path]. *)
let arm p path ~traced ~rep =
  p.traced <- traced;
  p.rep <- rep;
  p.names <- layers path;
  p.path_span <- -1;
  Array.fill p.ns 0 max_layers 0;
  Array.fill p.words 0 max_layers 0.0

let enter p =
  if p.traced then begin
    p.w0.(0) <- Meter.words ();
    p.t0 <- Meter.now ()
  end

let leave p layer =
  if p.traced then begin
    let t1 = Meter.now () in
    p.words.(layer) <- p.words.(layer) +. (Meter.words () -. p.w0.(0) -. Meter.probe_words);
    p.ns.(layer) <- p.ns.(layer) + (t1 - p.t0);
    ignore
      (Spans.add p.spans ~name:p.names.(layer) ~start:p.t0 ~stop:t1 ~parent:p.path_span ~rep:p.rep
        : int)
  end

type env = {
  model : Cost_model.t;
  m : int;
  trace_file : string;
  n : int; (* requests in the trace *)
  seed : int; (* serve: the [--seed] of serve-metrics *)
  batches : int; (* serve: batches per execution *)
  out : Buffer.t; (* stands in for stdout *)
  probe : probe;
  latency : Latency.t; (* untraced audit: one sample per Auditor.feed *)
}

type outcome =
  | Solved of { schedule : Schedule.t; opt : float }
  | Ran_online of { sc : float; opt : float; transfers : int }
  | Audited of { online : float; opt : float; violations : int }
  | Served of { mismatches : int; witness : string; exposition_bytes : int }

exception Failed of string

let read_trace env =
  match Trace_io.read ~filename:env.trace_file ~m:env.m with
  | Ok seq -> seq
  | Error msg -> raise (Failed (env.trace_file ^ ": " ^ msg))

(* ------------------------------------------------------------ solve *)

let solve env =
  let p = env.probe and model = env.model and out = env.out in
  enter p;
  let seq = read_trace env in
  leave p 0;
  enter p;
  let result = Solve_cache.solve model seq in
  leave p 1;
  enter p;
  let schedule = Offline_dp.schedule result in
  leave p 2;
  enter p;
  Printf.bprintf out "servers: %d, requests: %d, horizon: %g\n" (Sequence.m seq) (Sequence.n seq)
    (Sequence.horizon seq);
  Printf.bprintf out "optimal cost: %.6f (caching %.6f + transfers %.6f in %d transfers)\n"
    (Offline_dp.cost result)
    (Schedule.caching_cost model schedule)
    (Schedule.transfer_cost model schedule)
    (Schedule.num_transfers schedule);
  Printf.bprintf out "running lower bound B_n: %.6f\n" (Bounds.lower_bound model seq);
  leave p 3;
  Solved { schedule; opt = Offline_dp.cost result }

(* ----------------------------------------------------------- online *)

let online env =
  let p = env.probe and model = env.model and out = env.out in
  enter p;
  let seq = read_trace env in
  leave p 0;
  enter p;
  let sc = Online_sc.run model seq in
  Printf.bprintf out "SC cost: %.6f (caching %.6f + %d transfers)\n" sc.total_cost sc.caching_cost
    sc.num_transfers;
  leave p 1;
  enter p;
  let opt = Offline_dp.cost (Offline_dp.solve model seq) in
  Printf.bprintf out "offline optimum: %.6f, ratio %.4f (bound %.1f)\n" opt (sc.total_cost /. opt)
    Online_sc.competitive_bound;
  leave p 2;
  Ran_online { sc = sc.total_cost; opt; transfers = sc.num_transfers }

(* ------------------------------------------------------------ audit *)

let print_window out (w : Obs_audit.window) =
  Printf.bprintf out "%8d %8d %12.4f %12.4f %8.4f %10.4f %8.4f\n" w.index w.last w.online w.opt
    w.ratio w.regret w.prefix_ratio

let print_report out ~requests ~windows ~online ~opt ~ratio ~violations ~witnesses =
  Printf.bprintf out
    "audited %d requests in %d windows: online %.6f, optimum %.6f, ratio %.4f (bound %.1f)\n"
    requests windows online opt ratio Online_sc.competitive_bound;
  if violations = 0 then Buffer.add_string out "bound intact: 0 violations\n"
  else begin
    Printf.bprintf out "BOUND VIOLATED %d times; witness prefixes (most recent %d):\n" violations
      (List.length witnesses);
    List.iter
      (fun (w : Obs_audit.witness) ->
        Printf.bprintf out "  prefix %d: online %.6f vs opt %.6f, ratio %.4f\n" w.at w.w_online
          w.w_opt w.w_ratio)
      witnesses
  end

(* Untraced: [Auditor.replay]'s loop, with every [Auditor.feed] timed.
   One clock reading per call: a sample runs from the end of the
   previous feed to the end of this one. *)
let audit_untraced env seq =
  let out = env.out and lat = env.latency in
  let auditor =
    Auditor.create ~window_size ~bound:Online_sc.competitive_bound ~on_window:(print_window out)
      env.model ~m:(Sequence.m seq)
  in
  let last = ref (Meter.now ()) in
  for i = 1 to Sequence.n seq do
    Auditor.feed auditor ~server:(Sequence.server seq i) ~time:(Sequence.time seq i);
    let t = Meter.now () in
    Latency.record lat (t - !last);
    last := t
  done;
  let r = Auditor.finish auditor in
  print_report out ~requests:r.requests ~windows:r.windows ~online:r.online_cost ~opt:r.opt_cost
    ~ratio:r.final_ratio ~violations:r.violations ~witnesses:r.witnesses;
  Audited { online = r.online_cost; opt = r.opt_cost; violations = r.violations }

(* Traced: the three calls [Auditor.feed] makes, made here in its
   order, with a clock stamp between them.  Per-request layers count
   minor words only; the direct major allocations of their array
   doublings show in the path total. *)
let audit_traced env seq =
  let p = env.probe and model = env.model and out = env.out and m = Sequence.m seq in
  enter p;
  let inc = Online_sc.Incremental.create model ~m in
  leave p 1;
  enter p;
  let dp = Streaming_dp.create model ~m in
  leave p 2;
  enter p;
  let audit = Obs_audit.create ~window_size ~bound:Online_sc.competitive_bound () in
  leave p 3;
  (* The stamp that ends one request's obs_audit starts the next one's
     online_sc, so the loop step and the two Sequence reads count in
     online_sc.  A separate stamp there would leave one clock reading
     per request (~40 ns, a few percent of the path) in no layer. *)
  let ns1 = ref 0 and ns2 = ref 0 and ns3 = ref 0 in
  let words1 = ref 0.0 and words2 = ref 0.0 and words3 = ref 0.0 in
  let t3 = ref (Meter.now ()) and w3 = ref (Gc.minor_words ()) in
  for i = 1 to Sequence.n seq do
    let t0 = !t3 and w0 = !w3 in
    let server = Sequence.server seq i and time = Sequence.time seq i in
    Online_sc.Incremental.feed inc ~server ~time;
    let online = Online_sc.Incremental.cost_so_far inc in
    let t1 = Meter.now () in
    let w1 = Gc.minor_words () in
    Streaming_dp.push dp ~server ~time;
    let opt = Streaming_dp.cost dp in
    let t2 = Meter.now () in
    let w2 = Gc.minor_words () in
    (if Obs_audit.observe audit ~online ~opt then
       match Obs_audit.last_window audit with Some w -> print_window out w | None -> ());
    t3 := Meter.now ();
    w3 := Gc.minor_words ();
    ns1 := !ns1 + (t1 - t0);
    ns2 := !ns2 + (t2 - t1);
    ns3 := !ns3 + (!t3 - t2);
    words1 := !words1 +. (w1 -. w0);
    words2 := !words2 +. (w2 -. w1);
    words3 := !words3 +. (!w3 -. w2)
  done;
  p.ns.(1) <- p.ns.(1) + !ns1;
  p.ns.(2) <- p.ns.(2) + !ns2;
  p.ns.(3) <- p.ns.(3) + !ns3;
  p.words.(1) <- p.words.(1) +. !words1;
  p.words.(2) <- p.words.(2) +. !words2;
  p.words.(3) <- p.words.(3) +. !words3;
  enter p;
  (if Obs_audit.flush audit then
     match Obs_audit.last_window audit with Some w -> print_window out w | None -> ());
  let run = Online_sc.Incremental.finish inc in
  let opt = Streaming_dp.cost dp in
  let online = run.Online_sc.total_cost in
  let violations = Obs_audit.violations audit in
  print_report out ~requests:(Obs_audit.n audit) ~windows:(Obs_audit.windows_closed audit) ~online
    ~opt ~ratio:(Obs_audit.ratio ~online ~opt) ~violations ~witnesses:(Obs_audit.witnesses audit);
  leave p 4;
  Audited { online; opt; violations }

let audit env =
  let p = env.probe in
  enter p;
  let seq = read_trace env in
  leave p 0;
  Printf.bprintf env.out "%8s %8s %12s %12s %8s %10s %8s\n" "window" "i" "online" "opt" "ratio"
    "regret" "prefix";
  if p.traced then audit_traced env seq else audit_untraced env seq

(* ------------------------------------------------------------ serve *)

(* serve-metrics registers these once per process *)
let g_opt = Obs.gauge "serve.offline_opt_cost"
let g_ratio = Obs.gauge "serve.sc_vs_opt"
let item_labels = Array.init serve_items (Printf.sprintf "item%d")

let g_item_opt =
  Array.map
    (Obs.gauge_with_label (Obs.gauge_vec "serve.item_opt_cost" ~labels:[ "item" ]))
    item_labels

let g_item_ratio =
  Array.map
    (Obs.gauge_with_label (Obs.gauge_vec "serve.item_sc_vs_opt" ~labels:[ "item" ]))
    item_labels

let serve env =
  let p = env.probe and model = env.model and m = env.m in
  let spec =
    {
      Generator.m;
      n = serve_batch_size / serve_items;
      arrival = Dcache_workload.Arrival.Poisson { rate = 1.0 };
      placement = Dcache_workload.Placement.Uniform_random;
    }
  in
  let mismatches = ref 0 and witness = ref "" and bytes = ref 0 in
  for i = 0 to env.batches - 1 do
    let online_total = ref 0.0 and opt_total = ref 0.0 in
    for k = 0 to serve_items - 1 do
      enter p;
      let seq = Generator.generate_seeded ~seed:(env.seed + (i * serve_items) + k) spec in
      leave p 0;
      enter p;
      let auditor = Auditor.create model ~m ~item:item_labels.(k) in
      for j = 1 to Sequence.n seq do
        Auditor.feed auditor ~server:(Sequence.server seq j) ~time:(Sequence.time seq j)
      done;
      let report = Auditor.finish auditor in
      leave p 1;
      enter p;
      let memo = Offline_dp.cost (Solve_cache.solve model seq) in
      leave p 2;
      let online = report.online_cost and opt = report.opt_cost in
      if not (Dcache_prelude.Float_cmp.approx_eq opt memo) then begin
        incr mismatches;
        witness :=
          Printf.sprintf "batch %d item %d: auditor optimum %.17g, Solve_cache %.17g" i k opt memo
      end;
      enter p;
      online_total := !online_total +. online;
      opt_total := !opt_total +. opt;
      Obs.set_gauge g_item_opt.(k) opt;
      Obs.set_gauge g_item_ratio.(k) (Obs_audit.ratio ~online ~opt);
      leave p 3
    done;
    enter p;
    Solve_cache.publish_freqs ();
    Obs.set_gauge g_opt !opt_total;
    Obs.set_gauge g_ratio (Obs_audit.ratio ~online:!online_total ~opt:!opt_total);
    leave p 3;
    enter p;
    let exposition = Dcache_obs.Prometheus.exposition () in
    leave p 4;
    bytes := !bytes + String.length exposition
  done;
  Served { mismatches = !mismatches; witness = !witness; exposition_bytes = !bytes }

let requests env = function Serve -> env.batches * serve_batch_size | _ -> env.n

let run env = function
  | Solve -> solve env
  | Online -> online env
  | Audit -> audit env
  | Serve -> serve env
