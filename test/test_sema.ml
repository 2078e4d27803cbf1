(* dcache_sema: the typed pass on compiled fixtures — each S rule
   fires on its violation fixture, the interprocedural rules (S2, S6,
   S7) see through call chains, suppressions silence
   findings and go stale when they stop matching, S3 liveness counts
   product users (other libraries and sibling units, never test
   units), and the digest-keyed cache hits on re-runs and invalidates
   on an analyzer-version bump.

   Sema reads .cmt files, so the fixtures are compiled once (lazily)
   with [ocamlc -bin-annot] into a throwaway tree shaped like the
   project — lib/core/ and lib/workload/ plus bin/ and test/ users
   of the S3 fixture — so the path-scoped rules
   (S2's lib/core, S6's lib/workload, lib/ for the rest) see the
   prefixes they key on.  The R rules have their own suite,
   test_lint.ml. *)

module F = Report_finding

let fixture_dir = "sema_fixtures"

let command fmt =
  Printf.ksprintf
    (fun cmd -> if Sys.command cmd <> 0 then Alcotest.failf "command failed: %s" cmd)
    fmt

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let copy src dst =
  let contents = In_channel.with_open_bin src In_channel.input_all in
  Out_channel.with_open_bin dst (fun oc -> Out_channel.output_string oc contents)

let core_fixtures =
  [
    "s2_violation.ml"; "s2_violation.mli"; "s3_dead.ml"; "s3_dead.mli"; "s4_violation.ml";
    "s5_hot_obs.ml"; "clean.ml"; "suppressed.ml"; "s7_ref.ml"; "s7_named.ml"; "s7_clean.ml";
    "stale_suppress.ml"; "s2v2_chain.ml"; "s2v2_chain.mli"; "s2v2_clean.ml"; "s2v2_clean.mli";
    "s8_lock.ml"; "s8_protect.ml"; "s8_socket.ml"; "multi_suppress.ml"; "s3_sibling.ml";
  ]

let workload_fixtures =
  [
    "s6_deep.mli"; "s6_deep.ml"; "s6_violation.ml"; "s6_clean.ml"; "s6_scc.ml"; "s6_alias.ml";
    "s6_hashtbl_alias.ml"; "s6_call_alias.ml";
  ]

(* [core_order] lets the determinism test compile a second tree in a
   different order; .mli-before-.ml pairs are kept adjacent *)
let compile_tree ~core_order =
  let root = Filename.temp_file "dcache_sema_test" "" in
  Sys.remove root;
  mkdir_p (Filename.concat root "lib/core");
  mkdir_p (Filename.concat root "lib/workload");
  mkdir_p (Filename.concat root "bin");
  mkdir_p (Filename.concat root "test");
  let place sub name =
    copy (Filename.concat fixture_dir name) (Filename.concat root (Filename.concat sub name))
  in
  List.iter (place "lib/core") core_fixtures;
  List.iter (place "lib/workload") workload_fixtures;
  place "bin" "s3_user.ml";
  place "test" "s3_test_user.ml";
  let args order = String.concat " " (List.map (fun f -> "lib/core/" ^ f) order) in
  let pairs_first =
    [
      "s2_violation.mli"; "s2_violation.ml"; "s3_dead.mli"; "s3_dead.ml"; "s2v2_chain.mli";
      "s2v2_chain.ml"; "s2v2_clean.mli"; "s2v2_clean.ml";
    ]
  in
  command "cd %s && ocamlc -bin-annot -I lib/core -c %s %s" (Filename.quote root)
    (args pairs_first) (args core_order);
  command
    "cd %s && ocamlc -bin-annot -I lib/workload -c lib/workload/s6_deep.mli \
     lib/workload/s6_deep.ml lib/workload/s6_violation.ml lib/workload/s6_clean.ml \
     lib/workload/s6_scc.ml lib/workload/s6_alias.ml lib/workload/s6_hashtbl_alias.ml \
     lib/workload/s6_call_alias.ml"
    (Filename.quote root);
  command "cd %s && ocamlc -bin-annot -I lib/core -c bin/s3_user.ml test/s3_test_user.ml"
    (Filename.quote root);
  root

let default_core_order =
  List.filter
    (fun f ->
      Filename.check_suffix f ".ml"
      && not (List.mem f [ "s2_violation.ml"; "s3_dead.ml"; "s2v2_chain.ml"; "s2v2_clean.ml" ]))
    core_fixtures

let compiled = lazy (compile_tree ~core_order:default_core_order)

let run ?cache_file ?stamp () =
  let root = Lazy.force compiled in
  Sema_engine.run ?cache_file ?stamp ~source_root:root [ root ]

let find rule path findings = List.filter (fun f -> f.F.rule = rule && f.F.path = path) findings

let check_one name rule path line findings =
  match find rule path findings with
  | [ f ] -> Alcotest.(check int) (name ^ " line") line f.F.line
  | fs -> Alcotest.failf "%s: expected one %s in %s, got %d" name rule path (List.length fs)

let check_message name rule path needle findings =
  match find rule path findings with
  | [ f ] ->
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
        go 0
      in
      if not (contains f.F.message needle) then
        Alcotest.failf "%s: message %S does not mention %S" name f.F.message needle
  | fs -> Alcotest.failf "%s: expected one %s in %s, got %d" name rule path (List.length fs)

let test_rules_fire () =
  let findings, _, errors, _ = run () in
  Alcotest.(check (list string)) "no decode errors" [] errors;
  check_one "S2 undocumented raise" "S2" "lib/core/s2_violation.mli" 3 findings;
  check_one "S4 bare float fold" "S4" "lib/core/s4_violation.ml" 6 findings;
  (* the hot-body sink construction, the two setup-cost calls
     (Prometheus.listen, Audit.create) and the hot-body labeled-child
     resolution (Obs.counter_with_label) fire; the startup-pattern
     uses, the accessor calls (Prometheus.port, Audit.observe), the
     non-sink Recording constructor and the resolve-once-bump-hot
     pattern in the same fixture stay clean *)
  Alcotest.(check (list int))
    "S5 lines: sink construction + endpoint + auditor + resolve" [ 8; 32; 49; 77 ]
    (List.sort compare (List.map (fun f -> f.F.line) (find "S5" "lib/core/s5_hot_obs.ml" findings)))

let test_s3_liveness () =
  let findings, _, _, _ = run () in
  (* dead_export (line 5) is flagged; used_export is kept alive by the
     product reference in bin/s3_user.ml; kept_export is dead but
     carries a suppression *)
  check_one "S3 dead export" "S3" "lib/core/s3_dead.mli" 5 findings

let test_clean_and_suppressed () =
  let findings, _, _, _ = run () in
  let at path = List.filter (fun f -> f.F.path = path) findings in
  let check_empty name path =
    Alcotest.(check (list string)) name [] (List.map F.to_human (at path))
  in
  check_empty "clean fixture" "lib/core/clean.ml";
  check_empty "suppressed fixture" "lib/core/suppressed.ml";
  check_empty "S6 clean fixture" "lib/workload/s6_clean.ml";
  check_empty "S7 clean fixture" "lib/core/s7_clean.ml";
  check_empty "S2v2 clean fixture" "lib/core/s2v2_clean.ml";
  check_empty "S8 protect fixture" "lib/core/s8_protect.ml";
  check_empty "multi-rule suppressed fixture" "lib/core/multi_suppress.ml";
  (* the clean counterpart's .mli carries only dead-export noise,
     never an S2 *)
  Alcotest.(check (list string)) "S2v2 clean interface has no S2" []
    (List.map F.to_human (find "S2" "lib/core/s2v2_clean.mli" findings))

(* ------------------------------------------- interprocedural rules *)

let test_s6_fires () =
  let findings, _, _, _ = run () in
  check_one "S6 ambient Random one call down" "S6" "lib/workload/s6_violation.ml" 4 findings;
  check_one "S6 ambient Random two calls down" "S6" "lib/workload/s6_deep.ml" 5 findings;
  (* the SCC member holding the draw appears in the witness chain even
     though the generator never calls it directly *)
  check_one "S6 ambient Random inside a mutual-recursion SCC" "S6" "lib/workload/s6_scc.ml" 7
    findings;
  check_message "S6 SCC witness" "S6" "lib/workload/s6_scc.ml"
    "S6_scc.generate_walk -> S6_scc.walk -> S6_scc.descend" findings;
  (* a module alias hides neither the draw, nor the unordered fold, nor
     a call: [R.int] is [Random.int], [H.fold] is [Hashtbl.fold] and
     [D.shuffle] is [S6_deep.shuffle] *)
  check_one "S6 ambient Random through a module alias" "S6" "lib/workload/s6_alias.ml" 5 findings;
  check_one "S6 Hashtbl.fold through a module alias" "S6" "lib/workload/s6_hashtbl_alias.ml" 5
    findings;
  check_message "S6 call through a module alias" "S6" "lib/workload/s6_call_alias.ml"
    "S6_call_alias.generate_noisy -> S6_deep.shuffle -> S6_deep.jitter" findings

let test_s7_fires () =
  let findings, _, _, _ = run () in
  check_one "S7 closure bumping a captured ref" "S7" "lib/core/s7_ref.ml" 8 findings;
  check_message "S7 names the capture" "S7" "lib/core/s7_ref.ml" "`hits`" findings;
  check_one "S7 named task writing a module Hashtbl" "S7" "lib/core/s7_named.ml" 8 findings;
  check_message "S7 names the task" "S7" "lib/core/s7_named.ml" "S7_named.record" findings

(* S2v2: the exception reaches the public val only through a callee
   chain; the finding anchors at the .mli val, names the chain, and
   carries a SARIF-ready witness flow ending at the raise site *)
let test_s2v2_fires () =
  let findings, _, _, _ = run () in
  check_one "S2v2 chain finding" "S2" "lib/core/s2v2_chain.mli" 10 findings;
  check_message "S2v2 names the chain" "S2" "lib/core/s2v2_chain.mli"
    "S2v2_chain.total_cost -> S2v2_chain.scaled -> S2v2_chain.check_nonneg" findings;
  check_message "S2v2 names the exception" "S2" "lib/core/s2v2_chain.mli"
    "@raise Invalid_argument" findings;
  (match find "S2" "lib/core/s2v2_chain.mli" findings with
  | [ f ] ->
      Alcotest.(check bool) "S2v2 carries a witness flow" true (List.length f.F.flow >= 3);
      let last = List.nth f.F.flow (List.length f.F.flow - 1) in
      Alcotest.(check string) "flow ends at the raise site" "lib/core/s2v2_chain.ml"
        last.F.st_path;
      Alcotest.(check int) "raise site line" 5 last.F.st_line
  | fs -> Alcotest.failf "expected one S2v2 finding, got %d" (List.length fs));
  (* the documented helpers stay silent *)
  Alcotest.(check int) "only the undocumented val fires" 1
    (List.length (find "S2" "lib/core/s2v2_chain.mli" findings))

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* S8 lock discipline: raise-while-held and never-unlocked both fire;
   the Fun.protect / unlock-then-reraise idioms stay silent (clean
   check above) *)
let test_s8_locks () =
  let findings, _, _, _ = run () in
  let s8 = find "S8" "lib/core/s8_lock.ml" findings in
  Alcotest.(check (list int)) "S8 lines: raise site + unreleased lock" [ 9; 14 ]
    (List.sort compare (List.map (fun f -> f.F.line) s8));
  (match List.find_opt (fun f -> f.F.line = 9) s8 with
  | Some f ->
      Alcotest.(check bool) "raise finding names the mutex and Fun.protect" true
        (contains f.F.message "mutex `m`" && contains f.F.message "Fun.protect")
  | None -> Alcotest.fail "no raise-site S8 finding")

(* S8 resource discipline: the exceptional-path and return-path leaks
   fire at the acquisition site; protect- and close-based releases and
   the pair-bound accept stay silent *)
let test_s8_resources () =
  let findings, _, _, _ = run () in
  let s8 = find "S8" "lib/core/s8_socket.ml" findings in
  Alcotest.(check (list int)) "S8 lines: exception leak + return leak" [ 15; 20 ]
    (List.sort compare (List.map (fun f -> f.F.line) s8));
  List.iter
    (fun f ->
      let needle = if f.F.line = 15 then "exception" else "return path" in
      Alcotest.(check bool)
        (Printf.sprintf "S8 resource message at line %d" f.F.line)
        true (contains f.F.message needle))
    s8

(* one suppression comment, two rules: both the S5 sink construction
   and the S4 float fold on the next line are silenced, and the comment
   is not stale — plus the same property unit-tested on the engine
   directly *)
let test_multi_rule_suppression () =
  let _, _, _, stale = run () in
  Alcotest.(check bool) "multi-rule suppression is not stale" false
    (List.exists (fun (p, _, _) -> p = "lib/core/multi_suppress.ml") stale);
  let source = "let x = 1\n(* dcache-sema: allow S4 S5 — both *)\nlet y = 2\n" in
  let f rule = F.v ~path:"t.ml" ~line:3 ~col:0 ~rule "msg" in
  let kept, used =
    Report_engine.apply_suppressions_tracked source [ f "S4"; f "S5" ]
  in
  Alcotest.(check int) "both rules suppressed by one line" 0 (List.length kept);
  Alcotest.(check (list int)) "one comment line used" [ 2 ] used;
  let kept', _ =
    Report_engine.apply_suppressions_tracked source [ f "S6" ]
  in
  Alcotest.(check int) "unlisted rule survives" 1 (List.length kept')

(* --stats plumbing: CFG/dataflow/summary statistics are populated and
   identical between a cold and a fully cached run *)
let test_stats_populated () =
  let root = Lazy.force compiled in
  let cache = Filename.concat root "stats.cache" in
  if Sys.file_exists cache then Sys.remove cache;
  let _, cold, _, _ = Sema_engine.run ~cache_file:cache ~source_root:root [ root ] in
  Alcotest.(check bool) "blocks counted" true (cold.Sema_engine.cfg_blocks > 0);
  Alcotest.(check bool) "dataflow iterated" true (cold.Sema_engine.df_iterations > 0);
  Alcotest.(check bool) "summary nodes counted" true (cold.Sema_engine.summary_nodes > 0);
  Alcotest.(check bool) "SCCs counted" true
    (cold.Sema_engine.summary_sccs > 0
    && cold.Sema_engine.summary_sccs <= cold.Sema_engine.summary_nodes);
  Alcotest.(check bool) "fixpoint rounds counted" true
    (cold.Sema_engine.summary_rounds >= 1 && cold.Sema_engine.exn_rounds >= 1);
  let _, warm, _, _ = Sema_engine.run ~cache_file:cache ~source_root:root [ root ] in
  Alcotest.(check int) "warm run hits" warm.Sema_engine.units warm.Sema_engine.cache_hits;
  Alcotest.(check (list int)) "stats are cache-hit stable"
    [
      cold.Sema_engine.cfg_blocks; cold.Sema_engine.df_iterations;
      cold.Sema_engine.summary_nodes; cold.Sema_engine.summary_sccs;
      cold.Sema_engine.summary_rounds; cold.Sema_engine.exn_rounds;
    ]
    [
      warm.Sema_engine.cfg_blocks; warm.Sema_engine.df_iterations;
      warm.Sema_engine.summary_nodes; warm.Sema_engine.summary_sccs;
      warm.Sema_engine.summary_rounds; warm.Sema_engine.exn_rounds;
    ]

(* version pins: forgetting to bump either stamp when rule semantics
   change is the cache-staleness failure mode — fail loudly here *)
let test_version_pins () =
  Alcotest.(check string) "analyzer version" "14" Sema_rules.analyzer_version;
  Alcotest.(check int) "cache format version" 6 Sema_cache.version

(* witness chains surface in SARIF as codeFlows/relatedLocations and
   every rule descriptor links its docs anchor *)
let test_sarif_flows () =
  let flow =
    [ F.step ~path:"lib/a.mli" ~line:3 "public contract"; F.step ~path:"lib/b.ml" ~line:9 "raise" ]
  in
  let f = F.v ~path:"lib/a.mli" ~line:3 ~col:0 ~rule:"S2" ~flow "msg" in
  let sarif =
    Report_sarif.render ~tool_name:"dcache_sema" ~tool_version:"test"
      ~rules:(List.map (fun r -> (r.Sema_rules.id, r.summary)) Sema_rules.catalog)
      [ f; F.v ~path:"lib/c.ml" ~line:1 ~col:0 ~rule:"S4" "local" ]
  in
  let contains needle =
    let nh = String.length sarif and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub sarif i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "codeFlows present" true (contains "\"codeFlows\"");
  Alcotest.(check bool) "relatedLocations present" true (contains "\"relatedLocations\"");
  Alcotest.(check bool) "flow step text present" true (contains "public contract");
  Alcotest.(check bool) "S8 helpUri anchor" true
    (contains "docs/STATIC_ANALYSIS.md#s8");
  Alcotest.(check bool) "S2 helpUri anchor" true
    (contains "docs/STATIC_ANALYSIS.md#s2")

(* the acceptance demo: the planted multi-level chain is caught and
   the message spells out the full call path *)
let test_interproc_demo () =
  let findings, _, _, _ = run () in
  check_message "deep ambient-randomness chain" "S6" "lib/workload/s6_deep.ml"
    "S6_deep.generate_load -> S6_deep.shuffle -> S6_deep.jitter" findings

(* a unit with both a .cmt and a .cmti contributes once: exactly one
   S6 finding for s6_deep.ml, not one per artifact *)
let test_cmti_stability () =
  let findings, _, _, _ = run () in
  Alcotest.(check int) "one S6 for the mli-carrying unit" 1
    (List.length (find "S6" "lib/workload/s6_deep.ml" findings))

(* compile order must not leak into the report: a tree built in a
   different order produces byte-identical output, and re-running on
   the same tree is stable *)
let test_determinism () =
  let findings_a, _, _, stale_a = run () in
  let findings_a2, _, _, _ = run () in
  Alcotest.(check (list string)) "re-run is stable"
    (List.map F.to_human findings_a) (List.map F.to_human findings_a2);
  let root_b = compile_tree ~core_order:(List.rev default_core_order) in
  let findings_b, _, _, stale_b = Sema_engine.run ~source_root:root_b [ root_b ] in
  Alcotest.(check (list string)) "different compile order, same findings"
    (List.map F.to_human findings_a) (List.map F.to_human findings_b);
  Alcotest.(check int) "different compile order, same stale set" (List.length stale_a)
    (List.length stale_b)

(* ------------------------------------------------- cache behaviour *)

let test_cache_hits () =
  let root = Lazy.force compiled in
  let cache = Filename.concat root "sema.cache" in
  if Sys.file_exists cache then Sys.remove cache;
  let cold_findings, cold, _, _ = Sema_engine.run ~cache_file:cache ~source_root:root [ root ] in
  Alcotest.(check int) "cold run misses" 0 cold.Sema_engine.cache_hits;
  let warm_findings, warm, _, _ = Sema_engine.run ~cache_file:cache ~source_root:root [ root ] in
  Alcotest.(check int) "warm run hits every unit" warm.Sema_engine.units
    warm.Sema_engine.cache_hits;
  Alcotest.(check (list string)) "cached analyses reproduce the findings"
    (List.map F.to_human cold_findings)
    (List.map F.to_human warm_findings)

(* bumping the analyzer-version stamp must invalidate every cached
   entry — stale caches silently skipping new rule semantics is the
   failure mode this guards against *)
let test_cache_stamp_invalidation () =
  let cache = Filename.concat (Lazy.force compiled) "stamp.cache" in
  if Sys.file_exists cache then Sys.remove cache;
  let findings_a, cold, _, _ = run ~cache_file:cache ~stamp:"test-stamp-a" () in
  Alcotest.(check int) "cold run misses" 0 cold.Sema_engine.cache_hits;
  let _, warm, _, _ = run ~cache_file:cache ~stamp:"test-stamp-a" () in
  Alcotest.(check int) "same stamp hits" warm.Sema_engine.units warm.Sema_engine.cache_hits;
  let findings_b, bumped, _, _ = run ~cache_file:cache ~stamp:"test-stamp-b" () in
  Alcotest.(check int) "bumped stamp misses everything" 0 bumped.Sema_engine.cache_hits;
  Alcotest.(check (list string)) "same findings either way"
    (List.map F.to_human findings_a) (List.map F.to_human findings_b)

(* --------------------------------------------- stale suppressions *)

let test_stale_suppressions () =
  let _, _, _, stale = run () in
  let has path line = List.exists (fun (p, l, _) -> p = path && l = line) stale in
  Alcotest.(check bool) "unmatched comment is stale" true
    (has "lib/core/stale_suppress.ml" 4);
  (* comments that did suppress a finding are not stale *)
  Alcotest.(check bool) "working S4 suppression stays" false
    (List.exists (fun (p, _, _) -> p = "lib/core/suppressed.ml") stale);
  Alcotest.(check bool) "working S3 suppression stays" false
    (List.exists (fun (p, _, _) -> p = "lib/core/s3_dead.mli") stale)

(* the @sema gate enforces this too, with the exe-cmt aliases that
   make S3's usage graph complete; this in-suite regression covers
   the local and interprocedural rules so a mis-wired gate cannot
   hide them.  S3 is excluded: the graph seen from here depends on
   build order. *)
let test_lib_is_sema_clean () =
  if Sys.file_exists "../lib" then begin
    let findings, stats, _, stale = Sema_engine.run ~source_root:".." [ ".." ] in
    Alcotest.(check bool) "analyzed some units" true (stats.Sema_engine.units > 0);
    Alcotest.(check (list string)) "lib/ is sema-clean (S2, S4-S8)" []
      (List.filter (fun f -> f.F.rule <> "S3") findings |> List.map F.to_human);
    Alcotest.(check (list string)) "lib/ has no stale suppressions" []
      (List.map (fun (p, l, t) -> Printf.sprintf "%s:%d: %s" p l t) stale)
  end

(* a use from test/ does not count: dead_export, which only
   test/s3_test_user.ml calls, stays flagged *)
let test_s3_ignores_test_users () =
  let findings, _, _, _ = run () in
  check_message "S3 test-only export" "S3" "lib/core/s3_dead.mli" "dead_export" findings

(* a sibling unit of the same library counts: lib/core/s3_sibling.ml
   keeps sibling_export (line 9) live *)
let test_s3_counts_siblings () =
  let findings, _, _, _ = run () in
  Alcotest.(check (list int)) "S3 lines in s3_dead.mli" [ 5 ]
    (List.map (fun f -> f.F.line) (find "S3" "lib/core/s3_dead.mli" findings))

let suite =
  [
    Alcotest.test_case "S1/S2/S4/S5 fire on violation fixtures" `Quick test_rules_fire;
    Alcotest.test_case "S3 liveness across libraries" `Quick test_s3_liveness;
    Alcotest.test_case "clean and suppressed fixtures" `Quick test_clean_and_suppressed;
    Alcotest.test_case "S6 generator purity is transitive" `Quick test_s6_fires;
    Alcotest.test_case "S7 flags racy Pool tasks" `Quick test_s7_fires;
    Alcotest.test_case "interprocedural demo chains" `Quick test_interproc_demo;
    Alcotest.test_case "S2v2 tracks raises through callee chains" `Quick test_s2v2_fires;
    Alcotest.test_case "S8 lock discipline on all CFG paths" `Quick test_s8_locks;
    Alcotest.test_case "S8 resource release on all CFG paths" `Quick test_s8_resources;
    Alcotest.test_case "one comment suppresses two rules" `Quick test_multi_rule_suppression;
    Alcotest.test_case "CFG/summary stats populated and cache-stable" `Quick test_stats_populated;
    Alcotest.test_case "analyzer and cache versions pinned" `Quick test_version_pins;
    Alcotest.test_case "SARIF carries codeFlows and helpUris" `Quick test_sarif_flows;
    Alcotest.test_case "cmt/cmti pairs report once" `Quick test_cmti_stability;
    Alcotest.test_case "output is build-order independent" `Quick test_determinism;
    Alcotest.test_case "incremental cache hits on re-run" `Quick test_cache_hits;
    Alcotest.test_case "stamp bump invalidates the cache" `Quick test_cache_stamp_invalidation;
    Alcotest.test_case "stale suppressions are reported" `Quick test_stale_suppressions;
    Alcotest.test_case "lib/ is sema-clean" `Quick test_lib_is_sema_clean;
    Alcotest.test_case "S3 ignores test-only users" `Quick test_s3_ignores_test_users;
    Alcotest.test_case "S3 counts sibling units" `Quick test_s3_counts_siblings;
  ]
