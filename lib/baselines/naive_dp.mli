open Dcache_core

(** Full-scan variant of the paper's recurrences.

    Identical to {!Dcache_core.Offline_dp} except that the
    semi-optimal cost [D(i)] is computed by scanning every candidate
    [k] with [p(k) < p(i) <= k < i] — the full cover index set
    [pi(i)] of Definition 8 — instead of the [O(m)] per-server pivot
    lookup of Theorem 2.

    A scan for request [r_i] costs [i - p(i)]; summed over the
    sequence this is at most [nm] (for a fixed position [j], at most
    one request per server scans across [j]), so the full scan is
    [O(nm)] {e amortised} — but a single request can cost [O(n)],
    whereas the Theorem 2 structures guarantee [O(m)] per request.
    The experiment E6 notes discuss this measured head-to-head.

    Two purposes: (a) an executable check that restricting the scan to
    the per-server pivot maxima never changes the optimum, and (b) the
    structure-free exact comparator for the scaling benchmarks. *)

val solve : Cost_model.t -> Sequence.t -> float
(** Optimal total cost (no schedule reconstruction). *)

(* dcache-sema: allow S3 — oracle: the full-scan C/D vectors the streaming arena is checked against *)
val solve_vectors : Cost_model.t -> Sequence.t -> float array * float array
(** The full [(C, D)] vectors, for element-wise comparison against the
    fast algorithm. *)
