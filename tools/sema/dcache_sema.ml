(* dcache_sema — typed cross-module static analysis over .cmt files.

   Usage: dcache_sema [--json] [--sarif FILE] [--baseline FILE]
                      [--update-baseline] [--no-stale-check]
                      [--cache FILE] [--source-root DIR] [--stats] PATH...

   PATHs are build directories walked recursively for .cmt/.cmti
   files (typically _build/default, or ../.. from inside the dune
   rule).  Every unit found contributes to the cross-module usage and
   call graphs; each rule reports findings only for the source paths
   its catalog entry scopes it to.  Exit status: 0 clean, 1 fresh
   findings, stale baseline entries, or stale suppression comments,
   2 usage or I/O errors.  See docs/STATIC_ANALYSIS.md for the rule
   catalog. *)

module F = Report_finding
module E = Report_engine

let json = ref false
let sarif_file = ref ""
let baseline_file = ref ""
let update_baseline = ref false
let stale_check = ref true
let cache_file = ref ""
let source_root = ref "."
let show_stats = ref false
let roots = ref []

let spec =
  [
    ("--json", Arg.Set json, " Emit findings as a JSON array instead of file:line:col lines");
    ("--sarif", Arg.Set_string sarif_file, "FILE Also write findings as SARIF 2.1.0 to FILE");
    ("--baseline", Arg.Set_string baseline_file, "FILE Suppress findings listed in FILE");
    ( "--update-baseline",
      Arg.Set update_baseline,
      " Rewrite the baseline file with all current findings and exit 0" );
    ( "--no-stale-check",
      Arg.Clear stale_check,
      " Do not fail when baseline entries match nothing" );
    ( "--cache",
      Arg.Set_string cache_file,
      "FILE Digest-keyed incremental cache: unchanged units reuse their last analysis" );
    ( "--source-root",
      Arg.Set_string source_root,
      "DIR Resolve finding paths to source files (for suppression comments); default ." );
    ( "--stats",
      Arg.Set show_stats,
      " Print unit/cache-hit counts, per-rule finding counts and wall time to stderr" );
  ]

let usage = "dcache_sema [options] BUILD_PATH..."

let die fmt = Printf.ksprintf (fun msg -> prerr_endline ("dcache_sema: " ^ msg); exit 2) fmt

let () =
  Arg.parse (Arg.align spec) (fun p -> roots := p :: !roots) usage;
  if !roots = [] then die "no paths given (try: dcache_sema _build/default)";
  let t0 = Unix.gettimeofday () in
  let findings, stats, errors, stale_supps =
    try
      Sema_engine.run
        ?cache_file:(if !cache_file = "" then None else Some !cache_file)
        ~source_root:!source_root (List.rev !roots)
    with Sys_error msg -> die "%s" msg
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  List.iter prerr_endline errors;
  if errors <> [] then exit 2;
  if stats.Sema_engine.units = 0 then
    die "no .cmt files under the given paths (build the tree first: dune build @check)";
  if !show_stats then begin
    (* bench/sema_bench.ml scrapes this exact line: keep it verbatim *)
    Printf.eprintf "dcache_sema: %d units, %d cache hits\n" stats.Sema_engine.units
      stats.Sema_engine.cache_hits;
    let by_rule = Hashtbl.create 8 in
    List.iter
      (fun f ->
        let r = f.F.rule in
        Hashtbl.replace by_rule r (1 + Option.value ~default:0 (Hashtbl.find_opt by_rule r)))
      findings;
    List.iter
      (fun { Sema_rules.id; _ } ->
        let n = Option.value ~default:0 (Hashtbl.find_opt by_rule id) in
        Printf.eprintf "dcache_sema:   %s: %d finding%s\n" id n (if n = 1 then "" else "s"))
      Sema_rules.catalog;
    Printf.eprintf "dcache_sema:   cfg: %d blocks, %d dataflow iterations\n"
      stats.Sema_engine.cfg_blocks stats.Sema_engine.df_iterations;
    Printf.eprintf "dcache_sema:   summary: %d nodes, %d sccs, %d rounds (+%d exn)\n"
      stats.Sema_engine.summary_nodes stats.Sema_engine.summary_sccs
      stats.Sema_engine.summary_rounds stats.Sema_engine.exn_rounds;
    Printf.eprintf "dcache_sema: analysis took %.3fs\n%!" elapsed
  end;
  if !update_baseline then begin
    if !baseline_file = "" then die "--update-baseline requires --baseline FILE";
    let header =
      "# dcache_sema baseline: pre-existing findings that do not fail the build.\n\
       # One finding per line: path<TAB>rule<TAB>message (line numbers ignored).\n\
       # This file is deliberately empty: new findings are fixed at the source\n\
       # or suppressed inline with a reason (see docs/STATIC_ANALYSIS.md).\n"
    in
    let body = String.concat "" (List.map (fun f -> E.baseline_line f ^ "\n") findings) in
    Out_channel.with_open_bin !baseline_file (fun oc ->
        Out_channel.output_string oc (header ^ body));
    Printf.printf "dcache_sema: wrote %d entries to %s\n" (List.length findings) !baseline_file;
    exit 0
  end;
  let baseline =
    if !baseline_file = "" then []
    else match E.load_baseline !baseline_file with Ok b -> b | Error e -> die "%s" e
  in
  let fresh, stale = E.apply_baseline baseline findings in
  if !sarif_file <> "" then
    Out_channel.with_open_bin !sarif_file (fun oc ->
        Out_channel.output_string oc
          (Report_sarif.render ~tool_name:"dcache_sema" ~tool_version:Sema_rules.analyzer_version
             ~rules:(List.map (fun r -> (r.Sema_rules.id, r.summary)) Sema_rules.catalog)
             fresh));
  if !json then print_endline (F.to_json fresh)
  else List.iter (fun f -> print_endline (F.to_human f)) fresh;
  let stale_bad = !stale_check && stale <> [] in
  if stale_bad && not !json then
    List.iter
      (fun e ->
        Printf.eprintf "dcache_sema: stale baseline entry (fix it or drop the line): %s\t%s\t%s\n"
          e.E.b_path e.E.b_rule e.E.b_message)
      stale;
  let supps_bad = !stale_check && stale_supps <> [] in
  if supps_bad && not !json then
    List.iter
      (fun (path, line, text) ->
        Printf.eprintf "dcache_sema: stale suppression (remove me): %s:%d: %s\n" path line text)
      stale_supps;
  let n = List.length fresh in
  if (n > 0 || stale_bad || supps_bad) && not !json then
    Printf.eprintf
      "dcache_sema: %d fresh finding%s, %d stale baseline entr%s, %d stale suppression%s in %d \
       units\n"
      n
      (if n = 1 then "" else "s")
      (List.length stale)
      (if List.length stale = 1 then "y" else "ies")
      (List.length stale_supps)
      (if List.length stale_supps = 1 then "" else "s")
      stats.Sema_engine.units;
  exit (if n > 0 || stale_bad || supps_bad then 1 else 0)
