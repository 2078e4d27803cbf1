(* Tests for trace statistics and SVG rendering. *)

open Dcache_core
open Helpers
module TS = Dcache_workload.Trace_stats
module Svg = Dcache_viz.Svg

(* ------------------------------------------------------- trace stats *)

let stats_on_known_trace () =
  (* requests: (1,1.0) (1,2.0) (2,3.5) (1,4.0) *)
  let seq = Sequence.of_list ~m:3 [ (1, 1.0); (1, 2.0); (2, 3.5); (1, 4.0) ] in
  let s = TS.analyze seq in
  Alcotest.(check int) "n" 4 s.n;
  Alcotest.(check int) "servers used" 2 s.servers_used;
  check_float "horizon" 4.0 s.horizon;
  (* gaps: 1.0, 1.0, 1.5, 0.5 *)
  check_float "mean gap" 1.0 s.mean_gap;
  check_float "median gap" 1.0 s.median_gap;
  (* locality: r2 repeats s1 -> 1 of 3 *)
  check_float "locality" (1.0 /. 3.0) s.locality;
  (* finite revisits with a real (non-boundary) predecessor: r2 (1.0), r4 (2.0) *)
  Alcotest.(check int) "revisit count" 2 (Array.length s.revisits);
  check_float "mean revisit" 1.5 s.mean_revisit;
  (* popularity: s1 x3, s2 x1 *)
  Alcotest.(check (pair int int)) "top server" (1, 3) s.popularity.(0);
  check_float "top share" 0.75 s.top_share

let stats_cacheability () =
  let seq = Sequence.of_list ~m:2 [ (1, 1.0); (1, 1.5); (1, 4.0) ] in
  let s = TS.analyze seq in
  (* revisits: 0.5 and 2.5 *)
  let cheap = TS.cacheability (Cost_model.make ~mu:1.0 ~lambda:1.0 ()) s in
  check_float "one of two under the window" 0.5 cheap;
  let all = TS.cacheability (Cost_model.make ~mu:1.0 ~lambda:10.0 ()) s in
  check_float "all cheap with a huge window" 1.0 all

let stats_rejects_empty () =
  Alcotest.(check bool) "empty" true
    (try ignore (TS.analyze (Sequence.of_list ~m:2 [])); false with Invalid_argument _ -> true)

let stats_locality_tracks_mobility =
  qcheck ~count:30 "trace_stats: sticky mobility yields high locality"
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 1 1000))
    (fun seed ->
      let seq =
        Dcache_workload.Generator.generate_seeded ~seed
          {
            Dcache_workload.Generator.m = 6;
            n = 300;
            arrival = Dcache_workload.Arrival.Poisson { rate = 1.0 };
            placement = Dcache_workload.Placement.Mobility { stay = 0.95; ring = true };
          }
      in
      (TS.analyze seq).locality > 0.8)

(* --------------------------------------------------------------- svg *)

let count_needle needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec go i acc =
    if i + n > h then acc
    else if String.sub haystack i n = needle then go (i + 1) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

let svg_structure () =
  let model = Cost_model.unit in
  let seq = fig6 () in
  let sched = Offline_dp.schedule (Offline_dp.solve model seq) in
  let svg = Svg.schedule_svg seq sched in
  Alcotest.(check bool) "xml header" true (String.length svg > 50 && String.sub svg 0 5 = "<?xml");
  Alcotest.(check int) "one svg element open/close" 1 (count_needle "</svg>" svg);
  (* one dot per request *)
  Alcotest.(check int) "request dots" (Sequence.n seq) (count_needle "<circle" svg);
  (* one bar per cache interval (+0: background rect is width=100%) *)
  Alcotest.(check int) "cache bars"
    (List.length (Schedule.caches sched))
    (count_needle "rx=\"3\"" svg);
  (* one arrow per transfer *)
  Alcotest.(check int) "transfer arrows"
    (Schedule.num_transfers sched)
    (count_needle "marker-end" svg)

let svg_comparison_panels () =
  let model = Cost_model.unit in
  let seq = fig6 () in
  let opt = Offline_dp.schedule (Offline_dp.solve model seq) in
  let sc = Online_sc.schedule_of_run seq (Online_sc.run ~record_events:true model seq) in
  let svg =
    Svg.comparison_svg
      ~options:{ Svg.default_options with title = Some "cmp" }
      seq
      [ ("optimal", opt); ("speculative", sc) ]
  in
  Alcotest.(check int) "two panels of dots" (2 * Sequence.n seq) (count_needle "<circle" svg);
  Alcotest.(check bool) "subtitles present" true
    (count_needle ">optimal</text>" svg = 1 && count_needle ">speculative</text>" svg = 1);
  Alcotest.(check bool) "title present" true (count_needle ">cmp</text>" svg = 1)

let svg_balanced_tags =
  qcheck ~count:50 "svg: elements balance on random schedules"
    (nonempty_problem_arbitrary ~max_n:12 ())
    (fun { model; seq } ->
      let sched = Offline_dp.schedule (Offline_dp.solve model seq) in
      let svg = Svg.schedule_svg seq sched in
      count_needle "<svg" svg = 1
      && count_needle "</svg>" svg = 1
      && count_needle "<circle" svg = Sequence.n seq
      && count_needle "<circle" svg = count_needle "</circle>" svg
      (* the background rect is the only self-closing one *)
      && count_needle "<rect" svg = count_needle "</rect>" svg + 1
      && count_needle "<text" svg = count_needle "</text>" svg
      && count_needle "<title>" svg = count_needle "</title>" svg)

let svg_file_roundtrip () =
  let model = Cost_model.unit in
  let seq = fig2 () in
  let svg = Svg.schedule_svg seq (Offline_dp.schedule (Offline_dp.solve model seq)) in
  let filename = Filename.temp_file "dcache" ".svg" in
  Fun.protect
    ~finally:(fun () -> Sys.remove filename)
    (fun () ->
      Svg.write ~filename svg;
      let ic = open_in filename in
      let len = in_channel_length ic in
      let read = really_input_string ic len in
      close_in ic;
      Alcotest.(check int) "bytes" (String.length svg) (String.length read))

let suite =
  [
    case "trace_stats: known trace" stats_on_known_trace;
    case "trace_stats: cacheability vs window" stats_cacheability;
    case "trace_stats: rejects empty traces" stats_rejects_empty;
    stats_locality_tracks_mobility;
    case "svg: structural element counts" svg_structure;
    case "svg: comparison panels" svg_comparison_panels;
    svg_balanced_tags;
    case "svg: file write" svg_file_roundtrip;
  ]
