(* The R rules of dcache_sema: the catalog on compiled fixtures and
   snippets, suppression comments, baseline filtering, and the
   regression gate that first-party code stays R-clean.

   R rules read .cmt files like every dcache_sema rule, so each test
   compiles its fixtures and snippets with [ocamlc -bin-annot] into a
   throwaway tree and analyzes it: lib/ (every R rule applies), bin/
   (R1, R2 and R4 apply, R3 does not), and stubs/ with the interfaces
   the sources name (Schedule, Request, Cost_model, Dcache_prelude). *)

module F = Report_finding
module E = Report_engine

let fixture_dir = "sema_fixtures"
let stubs = [ "cost_model.mli"; "schedule.mli"; "request.mli"; "dcache_prelude.mli" ]

let command fmt =
  Printf.ksprintf
    (fun cmd -> if Sys.command cmd <> 0 then Alcotest.failf "command failed: %s" cmd)
    fmt

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let write path contents =
  mkdir_p (Filename.dirname path);
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc contents)

let read path = In_channel.with_open_bin path In_channel.input_all

(* a fixture file, placed at [dir]/[name] in the tree *)
let fixture ?(dir = "lib") name = (dir ^ "/" ^ name, read (Filename.concat fixture_dir name))

(* Compile [files], (tree path, source) pairs, into a fresh tree and
   analyze it.  Returns the findings at a path and the lines of the
   stale suppressions at a path. *)
let analyze files =
  let root = Filename.temp_file "dcache_r_rules_test" "" in
  Sys.remove root;
  List.iter
    (fun name ->
      write (Filename.concat root ("stubs/" ^ name)) (read (Filename.concat fixture_dir name)))
    stubs;
  List.iter (fun (path, source) -> write (Filename.concat root path) source) files;
  command "cd %s && ocamlc -bin-annot -w -a -I stubs -c %s %s" (Filename.quote root)
    (String.concat " " (List.map (fun s -> "stubs/" ^ s) stubs))
    (String.concat " " (List.map fst files));
  let findings, _, errors, stale = Sema_engine.run ~source_root:root [ root ] in
  command "rm -rf %s" (Filename.quote root);
  Alcotest.(check (list string)) "no decode errors" [] errors;
  ( (fun path -> List.filter (fun f -> f.F.path = path) findings),
    fun path -> List.filter_map (fun (p, line, _) -> if p = path then Some line else None) stale )

let summaries findings = List.map (fun f -> (f.F.line, f.F.rule)) findings

let check_findings name expected findings =
  Alcotest.(check (list (pair int string))) name expected (summaries findings)

(* The whole build tree, as the @sema gate sees it: every unit under
   lib/ bin/ bench/ examples/ tools/ (the test's deps build them all). *)
let tree = lazy (Sema_engine.run ~source_root:".." [ ".." ])

(* ------------------------------------------------------ fixture rules *)

let test_r1 () =
  let at, _ =
    analyze
      [
        fixture "r1_violation.ml";
        ("lib/stdlib_random.ml", "let r = Stdlib.Random.bool ()");
        ("lib/hashtbl_iter.ml", "let f h = Hashtbl.iter (fun _ _ -> ()) h");
        ("lib/prelude/rng.ml", "let r = Random.bits ()");
      ]
  in
  check_findings "R1 fixture" [ (4, "R1") ] (at "lib/r1_violation.ml");
  (* Stdlib-qualified and Hashtbl forms, and the rng.ml exemption *)
  check_findings "Stdlib.Random" [ (1, "R1") ] (at "lib/stdlib_random.ml");
  check_findings "Hashtbl.iter" [ (1, "R1") ] (at "lib/hashtbl_iter.ml");
  check_findings "rng.ml exempt" [] (at "lib/prelude/rng.ml")

let test_r1_aliases () =
  let at, _ =
    analyze
      [
        ("lib/module_alias.ml", "module R = Random\nlet x = R.int 10");
        ("lib/chained_alias.ml", "module A = Random\nmodule B = A\nlet x = B.bits ()");
        ("lib/open_random.ml", "open Random\nlet x = int 10");
        ("lib/let_open_random.ml", "let x () = let open Random in bool ()");
        ("lib/let_module.ml", "let x () = let module Q = Random in Q.bool ()");
        ("lib/innocent_alias.ml", "module R = List\nlet x = R.length []");
        ("lib/no_open.ml", "let int n = n\nlet x = int 10");
      ]
  in
  (* a module alias does not hide the Random dependency: the use site
     is flagged (the binding itself is not a draw, so line 1 stays
     clean) *)
  check_findings "module alias" [ (2, "R1") ] (at "lib/module_alias.ml");
  check_findings "chained alias" [ (3, "R1") ] (at "lib/chained_alias.ml");
  (* open Random makes the bare value names reachable *)
  check_findings "open Random" [ (2, "R1") ] (at "lib/open_random.ml");
  check_findings "let-open Random" [ (1, "R1") ] (at "lib/let_open_random.ml");
  check_findings "let module" [ (1, "R1") ] (at "lib/let_module.ml");
  (* an alias to something else stays clean, and so does a local
     [int] that shadows nothing *)
  check_findings "innocent alias" [] (at "lib/innocent_alias.ml");
  check_findings "no open, no finding" [] (at "lib/no_open.ml")

let test_r2 () =
  let at, _ =
    analyze
      [
        fixture "r2_violation.ml";
        ( "lib/cost_accessor.ml",
          "let tied m a b = compare (Schedule.cost m a) (Schedule.cost m b)" );
        ("lib/float_arith.ml", "let m a b = min (a +. 1.) b");
        ("lib/int_escape.ml", "let col t h w = min (w - 1) (int_of_float (t /. h))");
        ("lib/int_compare.ml", "let m a b = min (a + 1) b");
      ]
  in
  check_findings "R2 fixture" [ (3, "R2") ] (at "lib/r2_violation.ml");
  check_findings "cost accessor" [ (1, "R2") ] (at "lib/cost_accessor.ml");
  check_findings "min on float arith" [ (1, "R2") ] (at "lib/float_arith.ml");
  check_findings "int_of_float escape" [] (at "lib/int_escape.ml");
  check_findings "int compare untouched" [] (at "lib/int_compare.ml")

let test_r3 () =
  let at, _ = analyze [ fixture "r3_violation.ml"; fixture ~dir:"bin" "r3_violation.ml" ] in
  check_findings "R3 fixture" [ (3, "R3") ] (at "lib/r3_violation.ml");
  (* R3 is library-scope only: the same fixture is clean outside lib/ *)
  check_findings "R3 off outside lib/" [] (at "bin/r3_violation.ml")

let test_r4 () =
  let at, _ =
    analyze
      [
        fixture "r4_violation.ml";
        ( "lib/schedule_make.ml",
          "let dup c t = Schedule.make ~caches:c ~transfers:t = Schedule.empty" );
        ("lib/request_compare.ml", "let same (a : Request.t) b = compare a b = 0");
      ]
  in
  check_findings "R4 fixture" [ (3, "R4") ] (at "lib/r4_violation.ml");
  check_findings "Schedule.make result" [ (1, "R4") ] (at "lib/schedule_make.ml");
  check_findings "Request.t by its type" [ (1, "R4") ] (at "lib/request_compare.ml")

let test_clean () =
  let at, _ = analyze [ fixture "r_clean.ml" ] in
  check_findings "clean fixture" [] (at "lib/r_clean.ml")

(* -------------------------------------------------------- suppression *)

let test_suppression () =
  let at, _ =
    analyze
      [
        fixture "r_suppressed.ml";
        ("lib/distant.ml", "(* dcache-sema: allow R3 *)\nlet a = 1\nlet b xs = List.hd xs");
        ( "lib/trailing.ml",
          "let f xs = List.hd xs (* dcache-sema: allow R3 *)\nlet g xs = List.hd xs" );
        ("lib/wrong_rule.ml", "let f xs = List.hd xs (* dcache-sema: allow R1 *)");
      ]
  in
  check_findings "all four suppressed" [] (at "lib/r_suppressed.ml");
  (* the comment only reaches its own and the following line *)
  check_findings "distant comment does not suppress" [ (3, "R3") ] (at "lib/distant.ml");
  (* a trailing comment on a code line covers that line only *)
  check_findings "trailing comment does not leak downward" [ (2, "R3") ] (at "lib/trailing.ml");
  (* a suppression for one rule does not silence another *)
  check_findings "wrong rule id does not suppress" [ (1, "R3") ] (at "lib/wrong_rule.ml")

(* a suppression must earn its keep: the engine reports the lines of
   allow comments that suppressed nothing *)
let test_stale_suppressions () =
  let _, stale =
    analyze
      [
        ("lib/fires_trailing.ml", "let f xs = List.hd xs (* dcache-sema: allow R3 *)");
        ("lib/fires_above.ml", "(* dcache-sema: allow R3 *)\nlet f xs = List.hd xs");
        ("lib/matches_nothing.ml", "(* dcache-sema: allow R1 *)\nlet f x = x + 1");
        ("lib/wrong_id.ml", "let f xs = List.hd xs (* dcache-sema: allow R1 *)");
      ]
  in
  Alcotest.(check (list int)) "trailing suppression that fires is not stale" []
    (stale "lib/fires_trailing.ml");
  Alcotest.(check (list int)) "comment-above suppression that fires is not stale" []
    (stale "lib/fires_above.ml");
  Alcotest.(check (list int)) "suppression matching nothing is stale" [ 1 ]
    (stale "lib/matches_nothing.ml");
  Alcotest.(check (list int)) "wrong rule id is stale (and the finding survives)" [ 1 ]
    (stale "lib/wrong_id.ml");
  (* the repo's own suppressions all still earn their keep *)
  let _, _, _, stale = Lazy.force tree in
  Alcotest.(check (list string)) "no stale suppressions in first-party code" []
    (List.map (fun (p, l, _) -> Printf.sprintf "%s:%d" p l) stale)

(* ----------------------------------------------------------- baseline *)

let test_baseline () =
  let at, _ = analyze [ fixture "r1_violation.ml" ] in
  let findings = at "lib/r1_violation.ml" in
  let entries = E.parse_baseline (String.concat "\n" (List.map E.baseline_line findings)) in
  let fresh, stale = E.apply_baseline entries findings in
  Alcotest.(check int) "baselined findings are not fresh" 0 (List.length fresh);
  Alcotest.(check int) "no stale entries" 0 (List.length stale);
  (* line numbers are ignored: a moved finding still matches *)
  let moved = List.map (fun f -> { f with F.line = f.F.line + 40 }) findings in
  let fresh, stale = E.apply_baseline entries moved in
  Alcotest.(check int) "line drift keeps the match" 0 (List.length fresh);
  Alcotest.(check int) "line drift keeps entries used" 0 (List.length stale);
  (* an entry matching nothing is reported stale *)
  let unrelated = E.parse_baseline "lib/nowhere.ml\tR3\tpartial `List.hd`: match on the list" in
  let fresh, stale = E.apply_baseline unrelated findings in
  Alcotest.(check int) "unmatched findings stay fresh" (List.length findings) (List.length fresh);
  Alcotest.(check int) "unmatched entry is stale" 1 (List.length stale)

(* the checked-in baseline must stay empty: new findings are fixed at
   the source or suppressed inline, never parked *)
let test_baseline_is_empty () =
  let entries =
    match E.load_baseline "../tools/sema/baseline.txt" with
    | Ok entries -> entries
    | Error msg -> Alcotest.failf "load_baseline: %s" msg
  in
  Alcotest.(check int) "tools/sema/baseline.txt is empty" 0 (List.length entries)

(* ------------------------------------------- first-party code is clean *)

let test_lib_clean () =
  let dirs = [ "lib/"; "bin/"; "bench/"; "examples/"; "tools/" ] in
  let units = Sema_cmt.scan_units [ ".." ] in
  List.iter
    (fun dir ->
      Alcotest.(check bool) ("found units under " ^ dir) true
        (List.exists
           (fun (u : Sema_cmt.unit_info) -> Callgraph.has_prefix ("../" ^ dir) u.cmt_path)
           units))
    dirs;
  let findings, _, errors, _ = Lazy.force tree in
  Alcotest.(check (list string)) "no decode errors" [] errors;
  Alcotest.(check (list string)) "lib/ bin/ bench/ examples/ tools/ are R-clean" []
    (List.filter (fun f -> f.F.rule.[0] = 'R') findings |> List.map F.to_human)

let suite =
  [
    Alcotest.test_case "R1 determinism" `Quick test_r1;
    Alcotest.test_case "R1 aliased opens" `Quick test_r1_aliases;
    Alcotest.test_case "R2 float comparison" `Quick test_r2;
    Alcotest.test_case "R3 totality" `Quick test_r3;
    Alcotest.test_case "R4 polymorphic compare" `Quick test_r4;
    Alcotest.test_case "clean fixture" `Quick test_clean;
    Alcotest.test_case "suppression comments" `Quick test_suppression;
    Alcotest.test_case "stale suppressions" `Quick test_stale_suppressions;
    Alcotest.test_case "baseline filtering" `Quick test_baseline;
    Alcotest.test_case "baseline stays empty" `Quick test_baseline_is_empty;
    Alcotest.test_case "lib/ is lint-clean" `Quick test_lib_clean;
  ]
