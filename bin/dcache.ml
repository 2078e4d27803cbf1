(* dcache — command-line front end to the data-caching library.

   Subcommands: generate (synthesise a trace), solve (offline optimum),
   online (speculative caching), compare (all policies), experiments
   (regenerate every table of EXPERIMENTS.md). *)

open Cmdliner
open Dcache_core

(* ---------------------------------------------------------------- common *)

let mu_arg =
  Arg.(value & opt float 1.0 & info [ "mu" ] ~docv:"MU" ~doc:"Caching cost per copy per time unit.")

let lambda_arg =
  Arg.(value & opt float 1.0 & info [ "lambda" ] ~docv:"LAMBDA" ~doc:"Transfer cost between servers.")

let m_arg = Arg.(value & opt int 4 & info [ "m" ] ~docv:"M" ~doc:"Number of servers.")
let n_arg = Arg.(value & opt int 100 & info [ "n" ] ~docv:"N" ~doc:"Number of requests.")
let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let trace_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE" ~doc:"CSV trace file (server,time per line).")

let or_die = function
  | Ok v -> v
  | Error msg ->
      prerr_endline ("dcache: " ^ msg);
      exit 1

(* Every output file is opened before the work starts, so a path that
   cannot be written fails the run at once ("dcache: PATH: REASON",
   exit 1) instead of after its results were printed. *)
let open_out_or_die path =
  match Out_channel.open_text path with oc -> oc | exception Sys_error msg -> or_die (Error msg)

let enable_trace_or_die path =
  try Dcache_obs.Obs.enable_file_trace path with Sys_error msg -> or_die (Error msg)

(* [--trace] is taken (the input CSV), so the profiling flag is
   [--trace-json]; DCACHE_TRACE=FILE works for every subcommand. *)
let obs_term =
  let arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-json" ] ~docv:"FILE"
          ~doc:
            "Write a Chrome trace_event profile (chrome://tracing, Perfetto) of this run to \
             $(docv); also enabled by $(b,DCACHE_TRACE)=FILE.")
  in
  let install path = Option.iter enable_trace_or_die path in
  Term.(const install $ arg)

(* A library call that checks its options: its [Invalid_argument]
   becomes the command's error message *)
let checked f = try Ok (f ()) with Invalid_argument msg -> Error msg

let model_of mu lambda = checked (fun () -> Cost_model.make ~mu ~lambda ())

let load_trace filename m = Dcache_workload.Trace_io.read ~filename ~m

(* Extreme but finite rates (say --mu 1e308) overflow the costs to
   inf; report that instead of printing inf and nan ratios. *)
let finite_or_die what cost =
  if not (Float.is_finite cost) then
    or_die
      (Error
         (Printf.sprintf "%s is %s: the cost overflows floating point; use smaller --mu/--lambda"
            what (Float.to_string cost)))

(* [Audit.observe] refuses an overflowed cost before it writes a
   gauge; report which cost overflowed, naming it with [what] *)
let feed_or_die ?(inflate = 1.0) what auditor ~server ~time =
  let module A = Dcache_sim.Auditor in
  try A.feed auditor ~server ~time
  with Invalid_argument _ as e ->
    finite_or_die (what "online cost") (inflate *. A.online_cost_so_far auditor);
    finite_or_die (what "offline optimum") (A.opt_cost_so_far auditor);
    raise e

(* -------------------------------------------------------------- generate *)

let arrival_conv =
  let parse s =
    match String.split_on_char ':' s with
    | [ "poisson"; rate ] -> (
        match float_of_string_opt rate with
        | Some rate when rate > 0. -> Ok (Dcache_workload.Arrival.Poisson { rate })
        | _ -> Error (`Msg "poisson:RATE needs a positive float"))
    | [ "uniform"; gap ] -> (
        match float_of_string_opt gap with
        | Some gap when gap > 0. -> Ok (Dcache_workload.Arrival.Uniform { gap })
        | _ -> Error (`Msg "uniform:GAP needs a positive float"))
    | [ "pareto"; rest ] -> (
        match String.split_on_char ',' rest with
        | [ shape; scale ] -> (
            match (float_of_string_opt shape, float_of_string_opt scale) with
            | Some shape, Some scale when shape > 0. && scale > 0. ->
                Ok (Dcache_workload.Arrival.Pareto { shape; scale })
            | _ -> Error (`Msg "pareto:SHAPE,SCALE needs positive floats"))
        | _ -> Error (`Msg "pareto:SHAPE,SCALE"))
    | [ "periodic"; rest ] -> (
        match List.map float_of_string_opt (String.split_on_char ',' rest) with
        | [ Some base_rate; Some peak_rate; Some period ]
          when base_rate > 0. && peak_rate >= base_rate && period > 0. ->
            Ok (Dcache_workload.Arrival.Periodic { base_rate; peak_rate; period })
        | _ -> Error (`Msg "periodic:BASE,PEAK,PERIOD needs 0 < base <= peak and period > 0"))
    | _ -> Error (`Msg (Printf.sprintf "unknown arrival %S" s))
  in
  Arg.conv (parse, Dcache_workload.Arrival.pp)

let placement_conv =
  let parse s =
    match String.split_on_char ':' s with
    | [ "uniform" ] -> Ok Dcache_workload.Placement.Uniform_random
    | [ "roundrobin" ] -> Ok Dcache_workload.Placement.Round_robin
    | [ "zipf"; e ] -> (
        match float_of_string_opt e with
        | Some exponent when exponent >= 0. -> Ok (Dcache_workload.Placement.Zipf { exponent })
        | _ -> Error (`Msg "zipf:EXPONENT needs a non-negative float"))
    | [ "mobility"; rest ] -> (
        let stay_s, ring =
          match String.split_on_char ',' rest with
          | [ stay; "ring" ] -> (stay, true)
          | [ stay ] -> (stay, false)
          | _ -> ("", false)
        in
        match float_of_string_opt stay_s with
        | Some stay when stay >= 0. && stay <= 1. ->
            Ok (Dcache_workload.Placement.Mobility { stay; ring })
        | _ -> Error (`Msg "mobility:STAY[,ring] needs a probability"))
    | [ "multiuser"; rest ] -> (
        let parts = String.split_on_char ',' rest in
        let parts, ring =
          match List.rev parts with
          | "ring" :: others -> (List.rev others, true)
          | _ -> (parts, false)
        in
        match parts with
        | [ users_s; stay_s ] -> (
            match (int_of_string_opt users_s, float_of_string_opt stay_s) with
            | Some users, Some stay when users >= 1 && stay >= 0. && stay <= 1. ->
                Ok (Dcache_workload.Placement.Multi_user { users; stay; ring })
            | _ -> Error (`Msg "multiuser:K,STAY[,ring]"))
        | _ -> Error (`Msg "multiuser:K,STAY[,ring]"))
    | _ -> Error (`Msg (Printf.sprintf "unknown placement %S" s))
  in
  Arg.conv (parse, Dcache_workload.Placement.pp)

let generate_cmd =
  let arrival =
    Arg.(
      value
      & opt arrival_conv (Dcache_workload.Arrival.Poisson { rate = 1.0 })
      & info [ "arrival" ] ~docv:"SPEC"
          ~doc:"Arrival process: poisson:RATE, uniform:GAP, pareto:SHAPE,SCALE or periodic:BASE,PEAK,PERIOD.")
  in
  let placement =
    Arg.(
      value
      & opt placement_conv Dcache_workload.Placement.Uniform_random
      & info [ "placement" ] ~docv:"SPEC"
          ~doc:"Placement: uniform, zipf:EXP, mobility:STAY[,ring], multiuser:K,STAY[,ring] or roundrobin.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Output file (default stdout).")
  in
  let run m n seed arrival placement out =
    let oc = Option.map open_out_or_die out in
    let seq =
      or_die
        (checked (fun () ->
             Dcache_workload.Generator.generate_seeded ~seed
               { Dcache_workload.Generator.m; n; arrival; placement }))
    in
    match oc with
    | None -> Dcache_workload.Trace_io.output stdout seq
    | Some oc ->
        Dcache_workload.Trace_io.output oc seq;
        Out_channel.close oc
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Synthesise a request trace")
    Term.(const run $ m_arg $ n_arg $ seed_arg $ arrival $ placement $ out)

(* ----------------------------------------------------------------- solve *)

let solve_cmd =
  let render =
    Arg.(value & flag & info [ "render" ] ~doc:"Draw the optimal schedule as a space-time diagram.")
  in
  let show_schedule =
    Arg.(value & flag & info [ "schedule" ] ~doc:"List the cache intervals and transfers.")
  in
  let run () trace m mu lambda render show_schedule =
    let model = or_die (model_of mu lambda) in
    let seq = or_die (load_trace trace m) in
    let result = Solve_cache.solve model seq in
    finite_or_die "the optimal cost" (Offline_dp.cost result);
    let schedule = Offline_dp.schedule result in
    Printf.printf "servers: %d, requests: %d, horizon: %g\n" (Sequence.m seq) (Sequence.n seq)
      (Sequence.horizon seq);
    Printf.printf "optimal cost: %.6f (caching %.6f + transfers %.6f in %d transfers)\n"
      (Offline_dp.cost result)
      (Schedule.caching_cost model schedule)
      (Schedule.transfer_cost model schedule)
      (Schedule.num_transfers schedule);
    Printf.printf "running lower bound B_n: %.6f\n" (Bounds.lower_bound model seq);
    if show_schedule then Format.printf "%a@." Schedule.pp schedule;
    if render then print_string (Schedule.render seq schedule)
  in
  Cmd.v
    (Cmd.info "solve" ~doc:"Compute the optimal offline schedule for a trace")
    Term.(const run $ obs_term $ trace_arg $ m_arg $ mu_arg $ lambda_arg $ render $ show_schedule)

(* ---------------------------------------------------------------- online *)

let online_cmd =
  let window =
    Arg.(
      value
      & opt (some float) None
      & info [ "window" ] ~docv:"W" ~doc:"Override the speculative window (default lambda/mu).")
  in
  let epoch =
    Arg.(
      value
      & opt (some int) None
      & info [ "epoch-size" ] ~docv:"K" ~doc:"Transfers per epoch (default: one unbounded epoch).")
  in
  let events = Arg.(value & flag & info [ "events" ] ~doc:"Print the per-event log.") in
  let run () trace m mu lambda window epoch events =
    let model = or_die (model_of mu lambda) in
    let seq = or_die (load_trace trace m) in
    let sc =
      or_die
        (checked (fun () ->
             Online_sc.run ?window ?epoch_size:epoch ~record_events:events model seq))
    in
    finite_or_die "the SC cost" sc.total_cost;
    let opt = Offline_dp.cost (Offline_dp.solve model seq) in
    finite_or_die "the offline optimum" opt;
    if events then
      List.iter
        (fun event ->
          match event with
          | Online_sc.Served { index; server; time; kind } ->
              Printf.printf "%10.4f  r%-5d s%-3d %s\n" time index server
                (match kind with
                | Online_sc.By_cache -> "cache"
                | Online_sc.By_transfer src -> Printf.sprintf "transfer from s%d" src)
          | Online_sc.Expired { server; time } -> Printf.printf "%10.4f  expire s%d\n" time server
          | Online_sc.Extended { server; time; new_expiry } ->
              Printf.printf "%10.4f  extend s%d -> %.4f\n" time server new_expiry
          | Online_sc.Epoch_reset { time; kept } ->
              Printf.printf "%10.4f  epoch reset, kept s%d\n" time kept)
        sc.events;
    Printf.printf "SC cost: %.6f (caching %.6f + %d transfers)\n" sc.total_cost sc.caching_cost
      sc.num_transfers;
    Printf.printf "offline optimum: %.6f, ratio %.4f (bound %.1f)\n" opt
      (Dcache_obs.Audit.ratio ~online:sc.total_cost ~opt)
      Online_sc.competitive_bound
  in
  Cmd.v
    (Cmd.info "online" ~doc:"Run the online speculative-caching algorithm on a trace")
    Term.(const run $ obs_term $ trace_arg $ m_arg $ mu_arg $ lambda_arg $ window $ epoch $ events)

(* --------------------------------------------------------------- compare *)

let compare_cmd =
  let run () trace m mu lambda =
    let model = or_die (model_of mu lambda) in
    let seq = or_die (load_trace trace m) in
    let opt = Offline_dp.cost (Offline_dp.solve model seq) in
    finite_or_die "the offline optimum" opt;
    let outcomes = Dcache_baselines.Online_policies.all_deterministic model seq in
    List.iter
      (fun (o : Dcache_baselines.Online_policies.outcome) ->
        finite_or_die ("the " ^ o.name ^ " cost") o.cost)
      outcomes;
    let table =
      Dcache_prelude.Table.create
        [
          Dcache_prelude.Table.column ~align:Dcache_prelude.Table.Left "policy";
          Dcache_prelude.Table.column "cost";
          Dcache_prelude.Table.column "cost / OPT";
        ]
    in
    List.iter
      (fun (o : Dcache_baselines.Online_policies.outcome) ->
        Dcache_prelude.Table.add_row table
          [
            o.name;
            Dcache_prelude.Table.fmt_float ~prec:4 o.cost;
            Dcache_prelude.Table.fmt_float ~prec:4 (Dcache_obs.Audit.ratio ~online:o.cost ~opt);
          ])
      outcomes;
    Dcache_prelude.Table.add_row table
      [ "offline optimum"; Dcache_prelude.Table.fmt_float ~prec:4 opt; "1.0000" ];
    Dcache_prelude.Table.print table
  in
  Cmd.v
    (Cmd.info "compare" ~doc:"Compare every online policy against the offline optimum")
    Term.(const run $ obs_term $ trace_arg $ m_arg $ mu_arg $ lambda_arg)

(* --------------------------------------------------------------- analyze *)

let analyze_cmd =
  let run trace m mu lambda =
    let model = or_die (model_of mu lambda) in
    let seq = or_die (load_trace trace m) in
    if Sequence.n seq = 0 then or_die (Error "empty trace");
    let stats = Dcache_workload.Trace_stats.analyze seq in
    Format.printf "%a@." (Dcache_workload.Trace_stats.pp_with_model model) stats;
    Format.printf "@,per-server request counts:@.";
    Array.iter
      (fun (server, count) -> Printf.printf "  s%-4d %d\n" server count)
      stats.Dcache_workload.Trace_stats.popularity
  in
  Cmd.v
    (Cmd.info "analyze" ~doc:"Describe a trace: arrivals, locality, revisits, cacheability")
    Term.(const run $ trace_arg $ m_arg $ mu_arg $ lambda_arg)

(* ---------------------------------------------------------------- render *)

let render_cmd =
  let out =
    Arg.(
      required
      & opt (some string) None
      & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Output SVG file.")
  in
  let with_online =
    Arg.(value & flag & info [ "online" ] ~doc:"Add a speculative-caching panel below the optimum.")
  in
  let run trace m mu lambda out with_online =
    let model = or_die (model_of mu lambda) in
    let seq = or_die (load_trace trace m) in
    let oc = open_out_or_die out in
    let opt_result = Offline_dp.solve model seq in
    finite_or_die "the offline optimum" (Offline_dp.cost opt_result);
    let opt_sched = Offline_dp.schedule opt_result in
    let panels =
      (Printf.sprintf "offline optimum (cost %.3f)" (Offline_dp.cost opt_result), opt_sched)
      ::
      (if with_online then begin
         let sc = Online_sc.run ~record_events:true model seq in
         finite_or_die "the SC cost" sc.total_cost;
         [
           ( Printf.sprintf "speculative caching (cost %.3f, ratio %.2f)" sc.total_cost
               (Dcache_obs.Audit.ratio ~online:sc.total_cost ~opt:(Offline_dp.cost opt_result)),
             Online_sc.schedule_of_run seq sc );
         ]
       end
       else [])
    in
    let svg =
      Dcache_viz.Svg.comparison_svg
        ~options:
          {
            Dcache_viz.Svg.default_options with
            title = Some (Printf.sprintf "%s  (m=%d, n=%d)" (Filename.basename trace) m (Sequence.n seq));
          }
        seq panels
    in
    Out_channel.output_string oc svg;
    Out_channel.close oc;
    Printf.printf "wrote %s\n" out
  in
  Cmd.v
    (Cmd.info "render" ~doc:"Draw schedules as an SVG space-time diagram")
    Term.(const run $ trace_arg $ m_arg $ mu_arg $ lambda_arg $ out $ with_online)

(* ---------------------------------------------------------------- stream *)

let stream_cmd =
  let every =
    Arg.(value & opt int 10 & info [ "every" ] ~docv:"K" ~doc:"Report every K requests.")
  in
  let run () trace m mu lambda every =
    if every < 1 then or_die (Error "--every must be at least 1");
    let model = or_die (model_of mu lambda) in
    let seq = or_die (load_trace trace m) in
    let stream = Streaming_dp.create model ~m:(Sequence.m seq) in
    Printf.printf "%8s %10s %14s %14s
" "i" "t_i" "optimum C(i)" "bound B_i";
    for i = 1 to Sequence.n seq do
      Streaming_dp.push stream ~server:(Sequence.server seq i) ~time:(Sequence.time seq i);
      if i mod every = 0 || i = Sequence.n seq then begin
        (* C never decreases and row n is always printed, so no row
           prints an overflowed optimum *)
        finite_or_die "the prefix optimum" (Streaming_dp.cost stream);
        Printf.printf "%8d %10.4f %14.4f %14.4f
" i (Sequence.time seq i)
          (Streaming_dp.cost stream)
          (Streaming_dp.running_at stream i)
      end
    done
  in
  Cmd.v
    (Cmd.info "stream" ~doc:"Feed a trace through the incremental solver, printing prefix optima")
    Term.(const run $ obs_term $ trace_arg $ m_arg $ mu_arg $ lambda_arg $ every)

(* ----------------------------------------------------------------- audit *)

(* Streaming online-vs-offline replay: every request goes through
   Online_sc.Incremental, Streaming_dp.push and the Audit ratio /
   regret / Theorem-3 monitor — no batch re-solving anywhere. *)

let audit_cmd =
  let window_size_arg =
    Arg.(
      value
      & opt int 64
      & info [ "window-size" ] ~docv:"K" ~doc:"Requests per regret window.")
  in
  let bound_arg =
    Arg.(
      value
      & opt float Online_sc.competitive_bound
      & info [ "bound" ] ~docv:"B" ~doc:"Competitive bound to monitor (default: Theorem 3's 3.0).")
  in
  let inflate_arg =
    Arg.(
      value
      & opt float 1.0
      & info [ "inflate" ] ~docv:"F"
          ~doc:
            "Fault injection: multiply the online cost as reported to the auditor (the policy \
             itself is untouched). Values past the bound must provoke violations.")
  in
  let epoch_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "epoch-size" ] ~docv:"K" ~doc:"Transfers per epoch (default: one unbounded epoch).")
  in
  let metrics_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:"Write the final Prometheus exposition (the audit.* families included) to $(docv).")
  in
  let strict_arg =
    Arg.(
      value & flag
      & info [ "strict" ] ~doc:"Exit with status 2 when the bound monitor fired at least once.")
  in
  let run () trace m mu lambda window_size bound inflate epoch metrics_out strict =
    let module Obs = Dcache_obs.Obs in
    let model = or_die (model_of mu lambda) in
    let seq = or_die (load_trace trace m) in
    let metrics = Option.map (fun path -> (path, open_out_or_die path)) metrics_out in
    (* a recording sink so the audit.* families accumulate; --trace-json
       or DCACHE_TRACE may already have installed one *)
    (match Obs.sink () with
    | Obs.Recording _ -> ()
    | Obs.Noop -> Obs.set_sink (Obs.Recording (Obs.recorder ())));
    let on_window (w : Dcache_sim.Auditor.Audit.window) =
      Printf.printf "%8d %8d %12.4f %12.4f %8.4f %10.4f %8.4f\n" w.index w.last w.online w.opt
        w.ratio w.regret w.prefix_ratio
    in
    let auditor =
      or_die
        (checked (fun () ->
             Dcache_sim.Auditor.create ~window_size ~bound ~inflate ?epoch_size:epoch ~on_window
               model ~m:(Sequence.m seq)))
    in
    Printf.printf "%8s %8s %12s %12s %8s %10s %8s\n" "window" "i" "online" "opt" "ratio" "regret"
      "prefix";
    for i = 1 to Sequence.n seq do
      feed_or_die ~inflate (( ^ ) "the ") auditor ~server:(Sequence.server seq i)
        ~time:(Sequence.time seq i)
    done;
    let report = Dcache_sim.Auditor.finish auditor in
    finite_or_die "the online cost" report.online_cost;
    finite_or_die "the offline optimum" report.opt_cost;
    Printf.printf
      "audited %d requests in %d windows: online %.6f, optimum %.6f, ratio %.4f (bound %.1f)\n"
      report.requests report.windows report.online_cost report.opt_cost report.final_ratio bound;
    if report.violations = 0 then Printf.printf "bound intact: 0 violations\n"
    else begin
      Printf.printf "BOUND VIOLATED %d times; witness prefixes (most recent %d):\n"
        report.violations
        (List.length report.witnesses);
      List.iter
        (fun (w : Dcache_sim.Auditor.Audit.witness) ->
          Printf.printf "  prefix %d: online %.6f vs opt %.6f, ratio %.4f\n" w.at w.w_online
            w.w_opt w.w_ratio)
        report.witnesses
    end;
    Option.iter
      (fun (path, oc) ->
        Out_channel.output_string oc (Dcache_obs.Prometheus.exposition ());
        Out_channel.close oc;
        Printf.printf "wrote %s\n" path)
      metrics;
    if strict && report.violations > 0 then exit 2
  in
  Cmd.v
    (Cmd.info "audit"
       ~doc:"Replay a trace through the streaming online-vs-offline competitive-ratio auditor")
    Term.(
      const run $ obs_term $ trace_arg $ m_arg $ mu_arg $ lambda_arg $ window_size_arg $ bound_arg
      $ inflate_arg $ epoch_arg $ metrics_out_arg $ strict_arg)

(* ---------------------------------------------------------- serve-metrics *)

(* Long-run serving driver: batches of synthetic workload through the
   streaming DP and the online SC policy, forever by default, with a
   Prometheus /metrics endpoint polled between batches; metric history
   comes from scraping it, or from the Chrome trace --trace-json
   writes (every gauge write is a counter event there).  This is the
   wall-clock mode — the Runtime_events GC bridge is installed
   here (and only here / under --trace paths), never in the
   deterministic tick-clock modes. *)

let serve_metrics_cmd =
  let port_arg =
    Arg.(
      value
      & opt int 9090
      & info [ "metrics-port" ] ~docv:"PORT"
          ~doc:"Port for the /metrics endpoint (0 picks an ephemeral port, printed at startup).")
  in
  let batches_arg =
    Arg.(
      value
      & opt int 0
      & info [ "batches" ] ~docv:"K"
          ~doc:
            "Simulation batches to run; 0 runs until SIGTERM or SIGINT, which stop it after the \
             current batch.")
  in
  let batch_size_arg =
    Arg.(value & opt int 2000 & info [ "batch-size" ] ~docv:"N" ~doc:"Requests per batch.")
  in
  let items_arg =
    Arg.(
      value
      & opt int 4
      & info [ "items" ] ~docv:"K"
          ~doc:
            "Independent item streams per batch.  Each gets its own auditor and its own child in \
             the labeled serve.item_* and audit.item_* metric families.")
  in
  let run () port batches batch_size items m mu lambda seed =
    let module Obs = Dcache_obs.Obs in
    let module Prom = Dcache_obs.Prometheus in
    let module Bridge = Dcache_obs.Runtime_bridge in
    if batches < 0 then or_die (Error "--batches must be >= 0");
    if batch_size < 2 then or_die (Error "--batch-size must be at least 2");
    if items < 1 then or_die (Error "--items must be at least 1");
    if batch_size / items < 2 then
      or_die (Error "--batch-size must leave at least 2 requests per item");
    let model = or_die (model_of mu lambda) in
    (* SIGTERM or SIGINT ends the run after the current batch, through
       the normal exit: the trace is written, the bridge stopped and
       the runtime's <pid>.events ring file removed *)
    let stop = Atomic.make false in
    List.iter
      (fun signal -> Sys.set_signal signal (Sys.Signal_handle (fun _ -> Atomic.set stop true)))
      [ Sys.sigterm; Sys.sigint ];
    (* --trace-json may already have installed a recording sink (and
       will dump the Chrome trace at exit); otherwise record without
       a trace file so quantiles accumulate either way *)
    (match Obs.sink () with
    | Obs.Recording _ -> ()
    | Obs.Noop -> Obs.set_sink (Obs.Recording (Obs.recorder ())));
    let bridge = Bridge.install () in
    let server =
      match Prom.listen ~port () with
      | s -> s
      | exception Unix.Unix_error (e, _, _) ->
          or_die (Error (Printf.sprintf "cannot listen on port %d: %s" port (Unix.error_message e)))
    in
    Printf.printf "dcache: serving http://127.0.0.1:%d/metrics\n%!" (Prom.port server);
    let g_opt = Obs.gauge "serve.offline_opt_cost" in
    let g_ratio = Obs.gauge "serve.sc_vs_opt" in
    (* per-item children of the labeled serve.* families, resolved
       once here — the batch loop only bumps plain cells *)
    let v_item_opt = Obs.gauge_vec "serve.item_opt_cost" ~labels:[ "item" ] in
    let v_item_ratio = Obs.gauge_vec "serve.item_sc_vs_opt" ~labels:[ "item" ] in
    let item_labels = Array.init items (Printf.sprintf "item%d") in
    let g_item_opt = Array.map (Obs.gauge_with_label v_item_opt) item_labels in
    let g_item_ratio = Array.map (Obs.gauge_with_label v_item_ratio) item_labels in
    let per_item = batch_size / items in
    let batch i =
      let online_total = ref 0.0 and opt_total = ref 0.0 in
      for k = 0 to items - 1 do
        let seq =
          Dcache_workload.Generator.generate_seeded
            ~seed:(seed + (i * items) + k)
            {
              Dcache_workload.Generator.m;
              n = per_item;
              arrival = Dcache_workload.Arrival.Poisson { rate = 1.0 };
              placement = Dcache_workload.Placement.Uniform_random;
            }
        in
        (* per-request streaming audit, one pipeline per item: each
           request feeds the online SC state machine and the
           prefix-optimal DP in lockstep, so the audit.* families
           (prefix/window ratios, regret quantiles, the Theorem-3
           bound monitor) and this item's audit.item_* children update
           live — no per-batch re-solve *)
        let what cost = Printf.sprintf "batch %d, %s: the %s" i item_labels.(k) cost in
        let auditor = Dcache_sim.Auditor.create model ~m ~item:item_labels.(k) in
        for j = 1 to Sequence.n seq do
          feed_or_die what auditor ~server:(Sequence.server seq j) ~time:(Sequence.time seq j)
        done;
        let report = Dcache_sim.Auditor.finish auditor in
        (* memoised offline re-solve of the same instance: keeps the
           solve_cache.* counters and the entry_freq rank profile live
           under serving traffic (a repeated seed is a cache hit) *)
        ignore (Solve_cache.solve model seq : Offline_dp.t);
        let online = report.Dcache_sim.Auditor.online_cost in
        let opt = report.Dcache_sim.Auditor.opt_cost in
        finite_or_die (what "online cost") online;
        finite_or_die (what "offline optimum") opt;
        online_total := !online_total +. online;
        opt_total := !opt_total +. opt;
        Obs.set_gauge g_item_opt.(k) opt;
        Obs.set_gauge g_item_ratio.(k) (Dcache_obs.Audit.ratio ~online ~opt)
      done;
      Solve_cache.publish_freqs ();
      Obs.set_gauge g_opt !opt_total;
      (* always written: a zero-optimum batch reads 1.0 rather than
         silently keeping the previous batch's ratio *)
      Obs.set_gauge g_ratio (Dcache_obs.Audit.ratio ~online:!online_total ~opt:!opt_total)
    in
    let rec loop i =
      if (batches = 0 || i < batches) && not (Atomic.get stop) then begin
        batch i;
        ignore (Prom.poll server);
        (match bridge with Some t -> ignore (Bridge.poll t) | None -> ());
        loop (i + 1)
      end
      else i
    in
    let ran = loop 0 in
    ignore (Prom.poll server);
    Prom.close server;
    (match bridge with Some t -> Bridge.stop t | None -> ());
    Printf.printf "dcache: ran %d batches\n" ran
  in
  Cmd.v
    (Cmd.info "serve-metrics"
       ~doc:"Run a long-horizon serving simulation with a Prometheus /metrics endpoint")
    Term.(
      const run $ obs_term $ port_arg $ batches_arg $ batch_size_arg $ items_arg $ m_arg $ mu_arg
      $ lambda_arg $ seed_arg)

(* ----------------------------------------------------------- check-metrics *)

let check_metrics_cmd =
  let file_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"A saved /metrics response to validate.")
  in
  let run file =
    let text =
      match In_channel.open_text file with
      | exception Sys_error msg -> or_die (Error msg)
      | ic -> (
          (* a read error (a directory, say) names no path: add it *)
          match
            Fun.protect ~finally:(fun () -> In_channel.close ic) (fun () -> In_channel.input_all ic)
          with
          | s -> s
          | exception Sys_error msg -> or_die (Error (file ^ ": " ^ msg)))
    in
    match Dcache_obs.Prometheus.validate text with
    | Ok samples -> Printf.printf "dcache: valid Prometheus 0.0.4 exposition, %d samples\n" samples
    | Error msg -> or_die (Error ("invalid exposition: " ^ msg))
  in
  Cmd.v
    (Cmd.info "check-metrics"
       ~doc:"Validate a saved /metrics response against the text-format 0.0.4 grammar")
    Term.(const run $ file_arg)

(* ----------------------------------------------------------- experiments *)

module E = Dcache_experiments.Experiments

let experiments_cmd =
  let quick = Arg.(value & flag & info [ "quick" ] ~doc:"Reduced sweeps (for CI).") in
  let names =
    let known = List.map (fun (name, _) -> (name, name)) E.reports in
    Arg.(
      value
      & pos_all (enum known) []
      & info [] ~docv:"NAME"
          ~doc:
            (Printf.sprintf
               "Print only the named reports, in the order given (default: all). $(docv) is %s. \
                The parallel sweeps (E7, E8, E14) run on $(b,DCACHE_DOMAINS) domains (default: \
                the machine's recommended count); the output is byte-identical at any width."
               (doc_alts_enum known)))
  in
  let run () quick names =
    (* GC-aware tracing: with a wall-clock recording sink
       (--trace-json / DCACHE_TRACE), bridge Runtime_events GC phases
       into the trace.  Installed after the sink, so the LIFO at_exit
       chain polls the bridge before the trace dump; inert without
       one. *)
    ignore (Dcache_obs.Runtime_bridge.install ());
    let names = if names = [] then List.map fst E.reports else names in
    List.iter (fun name -> (List.assoc name E.reports) ~quick) names
  in
  Cmd.v
    (Cmd.info "experiments" ~doc:"Regenerate every table and figure of EXPERIMENTS.md")
    Term.(const run $ obs_term $ quick $ names)

let () =
  (try Dcache_obs.Obs.install_from_env () with Sys_error msg -> or_die (Error msg));
  let info =
    Cmd.info "dcache" ~version:"1.0.0"
      ~doc:"Cost-driven data caching in mobile cloud services (ICPP 2017 reproduction)"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            generate_cmd;
            solve_cmd;
            online_cmd;
            compare_cmd;
            analyze_cmd;
            render_cmd;
            stream_cmd;
            audit_cmd;
            serve_metrics_cmd;
            check_metrics_cmd;
            experiments_cmd;
          ]))
