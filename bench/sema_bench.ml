(* Cold vs. incremental wall-time of the dcache_sema pass.

     dune build @sema          # produce the exe and the .cmt tree
     make bench-sema           # or: dune exec bench/sema_bench.exe

   Runs the analyzer twice against the same fresh cache file: the
   first run analyzes every unit from scratch — building every CFG
   and running the summary and exception-flow fixpoints — and the second
   must hit the digest-keyed cache for all of them.  Exits non-zero
   if the warm run misses the cache, if the CFG/summary statistics
   differ between the runs (cached units must replay the numbers the
   cold run computed), or if either run blows the wall-time budget
   (DCACHE_SEMA_BUDGET_S, default 30 s) — the incremental path is a
   tested contract, not an optimization hint. *)

let default_exe = "_build/default/tools/sema/dcache_sema.exe"
let default_root = "_build/default"

let die fmt = Printf.ksprintf (fun msg -> prerr_endline ("sema_bench: " ^ msg); exit 2) fmt

type stats = {
  units : int;
  hits : int;
  cfg_blocks : int;
  df_iters : int;
  sum_nodes : int;
  sum_sccs : int;
  sum_rounds : int;
  exn_rounds : int;
}

(* last matching occurrence of each "dcache_sema: ..." stats line *)
let stats_of_log log =
  let base = ref None and cfg = ref None and summary = ref None in
  In_channel.with_open_text log (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> ()
        | Some line ->
            let scan fmt f r = try Scanf.sscanf line fmt (fun a b -> r := Some (f a b)) with Scanf.Scan_failure _ | End_of_file -> () in
            scan "dcache_sema: %d units, %d cache hits" (fun u h -> (u, h)) base;
            scan "dcache_sema:   cfg: %d blocks, %d dataflow iterations" (fun b i -> (b, i)) cfg;
            (try
               Scanf.sscanf line "dcache_sema:   summary: %d nodes, %d sccs, %d rounds (+%d exn)"
                 (fun n s r e -> summary := Some (n, s, r, e))
             with Scanf.Scan_failure _ | End_of_file -> ());
            go ()
      in
      go ());
  match (!base, !cfg, !summary) with
  | Some (units, hits), Some (cfg_blocks, df_iters), Some (sum_nodes, sum_sccs, sum_rounds, exn_rounds) ->
      { units; hits; cfg_blocks; df_iters; sum_nodes; sum_sccs; sum_rounds; exn_rounds }
  | None, _, _ -> die "no units/hits stats line in %s" log
  | _, None, _ -> die "no cfg stats line in %s" log
  | _, _, None -> die "no summary stats line in %s" log

let timed_run ~exe ~root ~cache =
  let log = Filename.temp_file "sema_bench" ".log" in
  Fun.protect
    ~finally:(fun () -> Sys.remove log)
    (fun () ->
      let cmd =
        Printf.sprintf "%s --cache %s --source-root %s --stats %s >/dev/null 2>%s"
          (Filename.quote exe) (Filename.quote cache) (Filename.quote root) (Filename.quote root)
          (Filename.quote log)
      in
      let t0 = Unix.gettimeofday () in
      let code = Sys.command cmd in
      let elapsed = Unix.gettimeofday () -. t0 in
      if code > 1 then die "analyzer failed (exit %d): %s" code cmd;
      (stats_of_log log, elapsed))

let () =
  let exe = if Array.length Sys.argv > 1 then Sys.argv.(1) else default_exe in
  let root = if Array.length Sys.argv > 2 then Sys.argv.(2) else default_root in
  if not (Sys.file_exists exe) then die "%s not found: run `dune build @sema` first" exe;
  let budget =
    match Sys.getenv_opt "DCACHE_SEMA_BUDGET_S" with
    | None -> 30.0
    | Some s -> ( try float_of_string s with Failure _ -> die "bad DCACHE_SEMA_BUDGET_S: %s" s)
  in
  let cache = Filename.temp_file "sema_bench" ".cache" in
  Sys.remove cache;
  let cold, cold_t = timed_run ~exe ~root ~cache in
  let warm, warm_t = timed_run ~exe ~root ~cache in
  (if Sys.file_exists cache then Sys.remove cache);
  Printf.printf "sema cold: %3d units, %3d cache hits, %.3f s\n" cold.units cold.hits cold_t;
  Printf.printf "sema warm: %3d units, %3d cache hits, %.3f s\n" warm.units warm.hits warm_t;
  Printf.printf "cfg:       %d blocks, %d dataflow iterations\n" cold.cfg_blocks cold.df_iters;
  Printf.printf "summary:   %d nodes, %d sccs, %d rounds (+%d exn)\n" cold.sum_nodes
    cold.sum_sccs cold.sum_rounds cold.exn_rounds;
  Printf.printf "speedup:   %.1fx\n" (cold_t /. Float.max warm_t 1e-6);
  if cold.hits <> 0 then die "cold run unexpectedly hit a cache";
  if warm.units <> warm.hits then
    die "incremental cache regressed: %d of %d units re-analyzed on the warm run"
      (warm.units - warm.hits) warm.units;
  if warm <> { cold with hits = warm.hits } then
    die
      "cached stats drifted: warm run reported cfg %d/%d summary %d/%d/%d (+%d), cold had %d/%d \
       %d/%d/%d (+%d)"
      warm.cfg_blocks warm.df_iters warm.sum_nodes warm.sum_sccs warm.sum_rounds warm.exn_rounds
      cold.cfg_blocks cold.df_iters cold.sum_nodes cold.sum_sccs cold.sum_rounds cold.exn_rounds;
  if cold_t > budget || warm_t > budget then
    die "wall-time budget exceeded: cold %.3f s, warm %.3f s, budget %.1f s" cold_t warm_t budget
