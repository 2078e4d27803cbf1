module F = Report_finding
module E = Report_engine

let marker = "dcache-sema:"

type stats = {
  units : int;
  cache_hits : int;
  cfg_blocks : int;  (* basic blocks built (or replayed from cache) across all units *)
  df_iterations : int;  (* per-unit dataflow sweeps to fixpoint, summed *)
  summary_nodes : int;  (* distinct keys in the call-graph summary *)
  summary_sccs : int;  (* Tarjan SCC count over the resolved call graph *)
  summary_rounds : int;  (* sweeps to the facts fixpoint *)
  exn_rounds : int;  (* sweeps to the may-raise fixpoint *)
}

(* A stale suppression: a "dcache-sema: allow" comment that suppressed
   nothing this run.  (normalized path, line, trimmed comment text). *)
type stale = string * int * string

(* ------------------------------------------------------- suppression *)

(* Findings of one unit can anchor in two files (.ml for S4-S8, .mli
   for S2/S3); suppression comments are read from whichever file a
   finding points at, resolved against [source_root].  Suppression is
   applied here at engine time — the cache stores raw findings — so
   which comments actually fired is known each run and their
   complement is the stale set. *)
let suppress_tracked ~source_root findings =
  let sources = Hashtbl.create 8 in
  let source_for path =
    match Hashtbl.find_opt sources path with
    | Some s -> s
    | None ->
        let s =
          match E.read_file (Filename.concat source_root path) with
          | Ok s -> Some s
          | Error _ -> None
        in
        Hashtbl.add sources path s;
        s
  in
  let used = ref [] in
  let kept =
    List.filter
      (fun f ->
        match source_for f.F.path with
        | None -> true
        | Some source ->
            let survivors, lines = E.apply_suppressions_tracked ~marker source [ f ] in
            List.iter (fun l -> used := (f.F.path, l) :: !used) lines;
            survivors <> [])
      findings
  in
  (kept, List.sort_uniq compare !used)

(* Every in-scope suppression comment that fired for no finding must
   go: it either outlived its finding or never matched one.  The scan
   walks the source tree directly so comments in finding-free files
   are caught too. *)
let stale_suppressions ~source_root ~scope ~used =
  let dir = Filename.concat source_root scope in
  if not (Sys.file_exists dir && Sys.is_directory dir) then []
  else
    let prefix = source_root ^ Filename.dir_sep in
    let rel path =
      let path =
        if String.length path > String.length prefix && String.sub path 0 (String.length prefix) = prefix
        then String.sub path (String.length prefix) (String.length path - String.length prefix)
        else path
      in
      F.normalize_path path
    in
    E.collect_files ~suffixes:[ ".ml"; ".mli" ] [ dir ]
    |> List.concat_map (fun path ->
           match E.read_file path with
           | Error _ -> []
           | Ok source ->
               let r = rel path in
               E.suppression_lines ~marker source
               |> List.filter_map (fun (line, text) ->
                      if List.mem (r, line) used then None else Some (r, line, text)))

(* ------------------------------------------------------ per-unit step *)

let unit_name_of_source ml_source =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename ml_source))

let analyze_unit (info : Sema_cmt.unit_info) =
  match Sema_cmt.decode_unit info with
  | Error _ as e -> e
  | Ok None ->
      Ok
        {
          Sema_rules.ua_findings = [];
          ua_exports = [];
          ua_uses = [];
          ua_graph = Callgraph.empty_graph;
          ua_blocks = 0;
          ua_iters = 0;
        }
  | Ok (Some decoded) ->
      let exports_with_docs =
        match (decoded.intf, decoded.mli_source) with
        | Some sg, Some mli_path -> Sema_rules.exports_of_interface ~mli_path sg
        | _ -> []
      in
      let findings, uses, graph, blocks, iters =
        match decoded.impl with
        | None -> ([], [], Callgraph.empty_graph, 0, 0)
        | Some structure ->
            let findings, uses, s8_blocks, s8_iters =
              Sema_rules.check_implementation ~ml_path:decoded.ml_source structure
            in
            let unit_name = Sema_rules.strip_mangling (unit_name_of_source decoded.ml_source) in
            let graph = Callgraph.extract ~unit_name ~ml_path:decoded.ml_source structure in
            (findings, uses, graph, s8_blocks + graph.Callgraph.ug_blocks, s8_iters)
      in
      Ok
        {
          Sema_rules.ua_findings = findings;
          ua_exports = exports_with_docs;
          ua_uses = uses;
          ua_graph = graph;
          (* cached with the unit so warm runs report the same numbers *)
          ua_blocks = blocks;
          ua_iters = iters;
        }

(* The digest covers the analyzer-version stamp plus the unit's cmt
   and cmti: any source edit — including a comment-only suppression
   edit — recompiles the cmt (its header embeds the source digest), so
   hashing the binary artifacts keys the cache without decoding
   anything on the hit path, and bumping the stamp invalidates every
   entry at once when rule semantics change. *)
let unit_digest ~stamp (info : Sema_cmt.unit_info) =
  Digest.string
    (stamp ^ Sema_cache.digest_of_files (info.cmt_path :: Option.to_list info.cmti_path))

(* ----------------------------------------------------------- S3 join *)

let has_prefix prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

let s3_findings ~scope units =
  (* liveness: (unit, value) used from any cmt in a different dune
     library (tests, bin, examples and sibling libs all count) *)
  let used = Hashtbl.create 256 in
  List.iter
    (fun ((info : Sema_cmt.unit_info), (ua : Sema_rules.unit_analysis), _name) ->
      List.iter
        (fun use ->
          let libs = Option.value ~default:[] (Hashtbl.find_opt used use) in
          if not (List.mem info.library libs) then Hashtbl.replace used use (info.library :: libs))
        ua.ua_uses)
    units;
  List.concat_map
    (fun ((info : Sema_cmt.unit_info), (ua : Sema_rules.unit_analysis), unit_name) ->
      List.filter_map
        (fun (value, line, mli_path, _doc) ->
          let mli_path = F.normalize_path mli_path in
          if not (has_prefix scope mli_path) then None
          else
            let external_user =
              match Hashtbl.find_opt used (unit_name, value) with
              | None -> false
              | Some libs -> List.exists (fun l -> l <> info.library) libs
            in
            if external_user then None
            else
              Some
                (F.v ~path:mli_path ~line ~col:0 ~rule:"S3"
                   (Printf.sprintf
                      "`val %s` is never referenced outside its own library: delete the export \
                       or keep it with a reasoned suppression"
                      value)))
        ua.ua_exports)
    units

(* --------------------------------------------------------------- run *)

let run ?cache_file ?(scope = "lib/") ?(stamp = Sema_rules.analyzer_version) ~source_root roots =
  let infos = Sema_cmt.scan_units roots in
  let cache = match cache_file with None -> [] | Some f -> Sema_cache.load f in
  let hits = ref 0 in
  let errors = ref [] in
  let units, cache' =
    List.fold_left
      (fun (units, cache') info ->
        let digest = unit_digest ~stamp info in
        let cached =
          match List.assoc_opt info.Sema_cmt.cmt_path cache with
          | Some entry when entry.Sema_cache.digest = digest -> Some entry.Sema_cache.analysis
          | _ -> None
        in
        let analysis =
          match cached with
          | Some a ->
              incr hits;
              Some a
          | None -> (
              match analyze_unit info with
              | Ok a -> Some a
              | Error e ->
                  errors := e :: !errors;
                  None)
        in
        match analysis with
        | None -> (units, cache')
        | Some a ->
            let name = unit_name_of_source (Filename.basename info.cmt_path) in
            ( (info, a, Sema_rules.strip_mangling name) :: units,
              (info.Sema_cmt.cmt_path, { Sema_cache.digest; analysis = a }) :: cache' ))
      ([], []) infos
  in
  let units = List.rev units in
  (match cache_file with None -> () | Some f -> Sema_cache.save f (List.rev cache'));
  let local =
    List.concat_map
      (fun (_, (ua : Sema_rules.unit_analysis), _) ->
        List.filter (fun f -> has_prefix scope f.F.path) ua.ua_findings)
      units
  in
  let s3 = s3_findings ~scope units in
  (* the interprocedural rules: every unit's graph joins the summary —
     out-of-scope callees propagate facts — but findings only anchor
     in scoped files *)
  let graphs =
    List.map (fun (_, (ua : Sema_rules.unit_analysis), _) -> ua.ua_graph) units
  in
  let summary = Summary.build graphs in
  (* the public contracts S2v2 audits: exports of scoped .mlis, keyed
     like the call graph keys top-level bindings of their unit *)
  let exports =
    List.concat_map
      (fun (_, (ua : Sema_rules.unit_analysis), unit_name) ->
        List.filter_map
          (fun (value, line, mli_path, doc) ->
            let mli_path = F.normalize_path mli_path in
            if not (Sema_rules.s2_scope mli_path) then None
            else
              Some
                {
                  Sema_interproc.ex_key = (unit_name, value);
                  ex_mli_line = line;
                  ex_mli_path = mli_path;
                  ex_doc = doc;
                })
          ua.ua_exports)
      units
  in
  let interproc, exn_rounds = Sema_interproc.findings summary ~exports graphs in
  let interproc = List.filter (fun f -> has_prefix scope f.F.path) interproc in
  let raw = List.sort_uniq F.compare (local @ s3 @ interproc) in
  let findings, used = suppress_tracked ~source_root raw in
  let stale = stale_suppressions ~source_root ~scope ~used in
  let stats =
    {
      units = List.length units;
      cache_hits = !hits;
      cfg_blocks =
        List.fold_left (fun n (_, (ua : Sema_rules.unit_analysis), _) -> n + ua.ua_blocks) 0 units;
      df_iterations =
        List.fold_left (fun n (_, (ua : Sema_rules.unit_analysis), _) -> n + ua.ua_iters) 0 units;
      summary_nodes = List.length summary.Summary.order;
      summary_sccs = Summary.scc_count summary;
      summary_rounds = summary.Summary.s_rounds;
      exn_rounds;
    }
  in
  (findings, stats, List.rev !errors, stale)
