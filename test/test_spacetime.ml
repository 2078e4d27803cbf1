(* Tests for the space-time graph (Definition 2). *)

open Dcache_core
open Helpers
module G = Dcache_spacetime.Graph

let unit = Cost_model.unit

let graph_dimensions () =
  let seq = fig6 () in
  let g = G.make unit seq in
  Alcotest.(check int) "rows = m + 1" 5 (G.num_rows g);
  Alcotest.(check int) "cols = n + 1" 9 (G.num_cols g)

let graph_edge_count () =
  (* per column i >= 1: (m + 1) cache edges, plus transfer edges: m
     in-edges to the request vertex (m - 1 from servers + 1 upload) and
     m - 1 out-edges *)
  let seq = Sequence.of_list ~m:3 [ (1, 1.0); (2, 2.0) ] in
  let g = G.make unit seq in
  let expected_per_col = 4 + 3 + 2 in
  Alcotest.(check int) "edges" (2 * expected_per_col) (G.num_edges g)

let graph_weights () =
  let model = Cost_model.make ~mu:2.0 ~lambda:5.0 () in
  let seq = Sequence.of_list ~m:2 [ (1, 1.5) ] in
  let g = G.make model seq in
  (* cache edge on server row: mu * dt *)
  let server0_row = 1 in
  let edges = G.out_edges g (G.vertex g ~row:server0_row ~col:0) in
  let cache_weight =
    List.assoc (G.vertex g ~row:server0_row ~col:1) edges
  in
  check_float "cache edge weight" 3.0 cache_weight;
  (* external row cache edge is free *)
  let ext_edges = G.out_edges g (G.vertex g ~row:0 ~col:0) in
  check_float "external cache edge weight" 0.0 (List.assoc (G.vertex g ~row:0 ~col:1) ext_edges)

let graph_transfer_star () =
  let seq = Sequence.of_list ~m:3 [ (1, 1.0) ] in
  let g = G.make unit seq in
  let rq = G.request_vertex g 1 in
  Alcotest.(check int) "request vertex is on the right row" rq (G.vertex g ~row:2 ~col:1);
  (* the request vertex has out-edges back to the other server rows *)
  let outs = G.out_edges g rq in
  Alcotest.(check int) "star out-degree (2 other servers)" 2 (List.length outs)

let dijkstra_line_graph () =
  (* distances along a simple instance: from the initial copy the
     request vertex of column 1 must be reachable at cost <= optimal *)
  let model = Cost_model.make ~mu:1.0 ~lambda:2.0 () in
  let seq = Sequence.of_list ~m:2 [ (1, 1.5) ] in
  let g = G.make model seq in
  let dist = G.dijkstra g ~src:(G.vertex g ~row:1 ~col:0) in
  (* cache s0 to t1 (1.5) then transfer (2.0) *)
  check_float "distance to the request" 3.5 dist.(G.request_vertex g 1);
  (* the external row is unreachable from a server *)
  Alcotest.(check bool) "no edge back to external storage" true
    (dist.(G.vertex g ~row:0 ~col:1) = infinity)

let dijkstra_upload_edges () =
  let model = Cost_model.make ~upload:0.5 ~mu:1.0 ~lambda:2.0 () in
  let seq = Sequence.of_list ~m:2 [ (1, 1.5) ] in
  let g = G.make model seq in
  let dist = G.dijkstra g ~src:(G.vertex g ~row:0 ~col:0) in
  (* ride the free external row then upload *)
  check_float "upload path" 0.5 dist.(G.request_vertex g 1)

let single_copy_equals_follow =
  qcheck ~count:250 "spacetime: migrate-only optimum equals the follow policy (homogeneous)"
    (nonempty_problem_arbitrary ())
    (fun { model; seq } ->
      approx ~eps:1e-6
        (G.single_copy_optimum model seq)
        (policy "follow" model seq).cost)

let single_copy_at_least_opt =
  qcheck ~count:250 "spacetime: forbidding replication never helps"
    (nonempty_problem_arbitrary ())
    (fun { model; seq } ->
      Dcache_prelude.Float_cmp.approx_le
        (Offline_dp.cost (Offline_dp.solve model seq))
        (G.single_copy_optimum model seq))

let dijkstra_lower_bounds_requests =
  qcheck ~count:150 "spacetime: the Dijkstra distance to r_1's vertex lower-bounds C(1)"
    (nonempty_problem_arbitrary ())
    (fun { model; seq } ->
      (* reaching the first request alone can't cost more than serving
         it optimally (C(1) also pays nothing else) *)
      let g = G.make model seq in
      let dist = G.dijkstra g ~src:(G.vertex g ~row:1 ~col:0) in
      let c = Offline_dp.c (Offline_dp.solve model seq) in
      Dcache_prelude.Float_cmp.approx_le dist.(G.request_vertex g 1) c.(1))

let vertex_bounds_checked () =
  let g = G.make unit (Sequence.of_list ~m:2 [ (1, 1.0) ]) in
  Alcotest.(check bool) "row out of range" true
    (try ignore (G.vertex g ~row:5 ~col:0); false with Invalid_argument _ -> true);
  Alcotest.(check bool) "col out of range" true
    (try ignore (G.request_vertex g 7); false with Invalid_argument _ -> true)

let suite =
  [
    case "graph: grid dimensions" graph_dimensions;
    case "graph: edge count" graph_edge_count;
    case "graph: edge weights" graph_weights;
    case "graph: transfer star on the request vertex" graph_transfer_star;
    case "graph: dijkstra on a tiny instance" dijkstra_line_graph;
    case "graph: upload edges" dijkstra_upload_edges;
    single_copy_equals_follow;
    single_copy_at_least_opt;
    dijkstra_lower_bounds_requests;
    case "graph: index validation" vertex_bounds_checked;
  ]
