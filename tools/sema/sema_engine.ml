module F = Report_finding
module E = Report_engine

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
            let survivors, lines = E.apply_suppressions_tracked source [ f ] in
            List.iter (fun l -> used := (f.F.path, l) :: !used) lines;
            survivors <> [])
      findings
  in
  (kept, List.sort_uniq compare !used)

(* Every suppression comment that fired for no finding must go: it
   either outlived its finding or never matched one.  The scan walks
   every directory some rule covers, straight from the source tree, so
   comments in finding-free files are caught too. *)
let stale_suppressions ~source_root ~used =
  let n = String.length (Filename.concat source_root "") in
  let rel path = F.normalize_path (String.sub path n (String.length path - n)) in
  Sema_rules.scope_dirs
  |> List.map (Filename.concat source_root)
  |> List.filter (fun dir -> Sys.file_exists dir && Sys.is_directory dir)
  |> E.collect_files ~suffixes:[ ".ml"; ".mli" ]
  |> List.concat_map (fun path ->
         match E.read_file path with
         | Error _ -> []
         | Ok source ->
             let r = rel path in
             E.suppression_lines source
             |> List.filter_map (fun (line, text) ->
                    if List.mem (r, line) used then None else Some (r, line, text)))

(* ------------------------------------------------------ per-unit step *)

(* the name the graphs key a unit by, dune's [lib__] mangling stripped *)
let unit_name_of path =
  Callgraph.strip_mangling
    (String.capitalize_ascii (Filename.remove_extension (Filename.basename path)))

let no_analysis =
  {
    Sema_rules.ua_findings = [];
    ua_exports = [];
    ua_uses = [];
    ua_graph = Callgraph.empty_graph;
    ua_blocks = 0;
    ua_iters = 0;
  }

let analyze_unit ~unit_name (info : Sema_cmt.unit_info) =
  match Sema_cmt.decode_unit info with
  | Error _ as e -> e
  | Ok None -> Ok no_analysis
  | Ok (Some decoded) -> (
      let ua_exports =
        match (decoded.intf, decoded.mli_source) with
        | Some sg, Some mli_path -> Sema_rules.exports_of_interface ~mli_path sg
        | _ -> []
      in
      match decoded.impl with
      | None -> Ok { no_analysis with ua_exports }
      | Some structure ->
          let ua_findings, ua_uses, s8_blocks, ua_iters =
            Sema_rules.check_implementation ~ml_path:decoded.ml_source structure
          in
          let ua_graph = Callgraph.extract ~unit_name ~ml_path:decoded.ml_source structure in
          (* the block and sweep counts are cached with the unit so warm
             runs report the same numbers *)
          Ok
            {
              Sema_rules.ua_findings;
              ua_exports;
              ua_uses;
              ua_graph;
              ua_blocks = s8_blocks + ua_graph.Callgraph.ug_blocks;
              ua_iters;
            })

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

let s3_findings units =
  (* liveness: (unit, value) used from a first-party unit (lib/ bin/
     bench/ examples/ tools/) other than the one that defines it.
     Test units never count; sibling units of the same library do,
     since dune has no library-private values. *)
  let users = Hashtbl.create 256 in
  List.iter
    (fun (_, (ua : Sema_rules.unit_analysis), _) ->
      let path = ua.ua_graph.Callgraph.ug_path in
      if List.exists (fun dir -> Callgraph.has_prefix dir path) Sema_rules.first_party then
        List.iter
          (fun use ->
            let paths = Option.value ~default:[] (Hashtbl.find_opt users use) in
            Hashtbl.replace users use (path :: paths))
          ua.ua_uses)
    units;
  List.concat_map
    (fun (_, (ua : Sema_rules.unit_analysis), unit_name) ->
      let own = ua.ua_graph.Callgraph.ug_path in
      List.filter_map
        (fun (value, line, mli_path, _doc) ->
          let live =
            match Hashtbl.find_opt users (unit_name, value) with
            | None -> false
            | Some paths -> List.exists (fun p -> p <> own) paths
          in
          if live then None
          else
            Some
              (F.v ~path:mli_path ~line ~col:0 ~rule:"S3"
                 (Printf.sprintf
                    "`val %s` is never referenced by product code outside its own unit: delete \
                     the export or keep it with a reasoned suppression"
                    value)))
        ua.ua_exports)
    units

(* --------------------------------------------------------------- run *)

let run ?cache_file ?(stamp = Sema_rules.analyzer_version) ~source_root roots =
  let infos = Sema_cmt.scan_units roots in
  let cache = match cache_file with None -> [] | Some f -> Sema_cache.load f in
  let hits = ref 0 in
  let errors = ref [] in
  let units, cache' =
    List.fold_left
      (fun (units, cache') info ->
        let digest = unit_digest ~stamp info in
        let unit_name = unit_name_of info.Sema_cmt.cmt_path in
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
              match analyze_unit ~unit_name info with
              | Ok a -> Some a
              | Error e ->
                  errors := e :: !errors;
                  None)
        in
        match analysis with
        | None -> (units, cache')
        | Some a ->
            ( (info, a, unit_name) :: units,
              (info.Sema_cmt.cmt_path, { Sema_cache.digest; analysis = a }) :: cache' ))
      ([], []) infos
  in
  let units = List.rev units in
  (match cache_file with None -> () | Some f -> Sema_cache.save f (List.rev cache'));
  let local =
    List.concat_map (fun (_, (ua : Sema_rules.unit_analysis), _) -> ua.ua_findings) units
  in
  (* the interprocedural rules: every unit's graph joins the summary —
     out-of-scope callees propagate facts — but findings, like every
     other, only anchor in their rule's scope *)
  let graphs =
    List.map (fun (_, (ua : Sema_rules.unit_analysis), _) -> ua.ua_graph) units
  in
  let summary = Summary.build graphs in
  (* the public contracts S2v2 audits: every .mli export, keyed like
     the call graph keys top-level bindings of their unit *)
  let exports =
    List.concat_map
      (fun (_, (ua : Sema_rules.unit_analysis), unit_name) ->
        List.map
          (fun (value, line, mli_path, doc) ->
            {
              Sema_interproc.ex_key = (unit_name, value);
              ex_mli_line = line;
              ex_mli_path = F.normalize_path mli_path;
              ex_doc = doc;
            })
          ua.ua_exports)
      units
  in
  let interproc, exn_rounds = Sema_interproc.findings summary ~exports graphs in
  let raw =
    List.sort_uniq F.compare
      (List.filter Sema_rules.in_scope (local @ s3_findings units @ interproc))
  in
  let findings, used = suppress_tracked ~source_root raw in
  let stale = stale_suppressions ~source_root ~used in
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
