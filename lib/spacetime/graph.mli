open Dcache_core

(** The weighted space-time graph of Definition 2.

    Vertices are laid out on a grid: row [0] is the external storage
    ([v_0i] in the paper), rows [1 .. m] are the servers (row [s + 1]
    is server [s] of {!Dcache_core.Sequence}), and columns [0 .. n]
    are the request times ([t_0 = 0] first).  Edges:

    - {e cache edges} along each row between consecutive columns,
      weight [mu * (t_i - t_{i-1})] for server rows and [0] for the
      external-storage row (the provider stores the master copy at no
      cost to the tenant);
    - {e transfer edges} within column [i], in both directions,
      between the request vertex [v_{s_i, i}] and every other row:
      weight [lambda] between servers, [beta] from external storage
      (and [infinity] back up, uploads are one-way).

    The graph exists to give the paper's pictures an executable
    counterpart: schedules are subgraphs, the migrate-only optimum is
    a shortest constrained path, and Dijkstra distances provide
    independent lower-bound sanity checks in tests. *)

type t

(* dcache-sema: allow S3 — seed "graph:" cases and the Dijkstra qcheck *)
val make : Cost_model.t -> Sequence.t -> t

(* dcache-sema: allow S3 — seed case "graph: grid dimensions" *)
val num_rows : t -> int
(** [m + 1]. *)

(* dcache-sema: allow S3 — seed case "graph: grid dimensions" *)
val num_cols : t -> int
(** [n + 1]. *)

(* dcache-sema: allow S3 — seed cases "graph: edge weights", "graph: index validation" *)
val vertex : t -> row:int -> col:int -> int
(** Dense vertex id. *)

(* dcache-sema: allow S3 — seed cases "graph: edge weights", "graph: transfer star on the request vertex" *)
val out_edges : t -> int -> (int * float) list
(** Successors with weights. *)

(* dcache-sema: allow S3 — seed case "graph: edge count" *)
val num_edges : t -> int

(* dcache-sema: allow S3 — seed cases "graph: dijkstra on a tiny instance", "graph: upload edges" *)
val dijkstra : t -> src:int -> float array
(** Single-source shortest distances over the directed graph
    ([infinity] for unreachable vertices). *)

(* dcache-sema: allow S3 — seed case "spacetime: the Dijkstra distance to r_1's vertex lower-bounds C(1)" *)
val request_vertex : t -> int -> int
(** [request_vertex g i] is the vertex of request [r_i]
    ([i] in [\[0, n\]]; [0] gives [v_{s^1, 0}]). *)

val single_copy_optimum : Cost_model.t -> Sequence.t -> float
(** Cheapest way to serve the whole sequence with {e one} copy that is
    never replicated: a minimum-cost path through all request vertices
    in column order, allowing both migrations and round-trip "bounce"
    serves.  Under a homogeneous cost model this equals the cost of
    the [follow] baseline policy (migration is never worse than
    bouncing when every pair is equidistant) — asserted in tests.
    [O(mn)]. *)
