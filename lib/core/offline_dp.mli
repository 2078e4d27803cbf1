(** The paper's fast optimal offline algorithm (Section IV).

    Computes the minimum total service cost and an optimal schedule in
    [O(mn)] time and space using the coupled recurrences (2) and (5):

    - [C(i)] — optimal cost of serving [r_0 .. r_i]
      ({!val-c}, Definition 6):
      [C(i) = min(D(i), C(i-1) + mu * dt_{i-1,i} + lambda)];
    - [D(i)] — semi-optimal cost under the condition that [r_i] is
      served by the cache [H(s_i, t_{p(i)}, t_i)] ({!val-d},
      Definition 7):
      [D(i) = min(C(p(i)) + mu*sigma_i + B_{i-1} - B_{p(i)},
                  min_{kappa} D(kappa) + mu*sigma_i + B_{i-1} - B_kappa)].

    The pivot candidates [kappa] are found in [O(1)] per server via
    the pre-scanned matrix [A] of Theorem 2: for each server [j] the
    candidate is the request on [j] whose cache interval
    [\[t_{p(kappa)}, t_kappa\]] spans [t_{p(i)}] — at most one per
    server, so [|pi(i)| <= m] candidates per request.

    When the cost model enables uploads ([beta < infinity]) the
    algorithm treats [min(lambda, beta)] as the effective cost of
    materialising the item on a server at an instant; the paper's
    setting is recovered at [beta = +infinity]. *)

type t

val solve : Cost_model.t -> Sequence.t -> t
(** Runs the sweep ({!Streaming_dp.of_sequence}).  [O(mn)] time and
    space, every column sized for the sequence up front; the
    sequence's time column is read in place, not copied, so the result
    keeps it alive.
    @raise Invalid_argument if the model/sequence pair is invalid
    ({!Streaming_dp.create}'s and [push]'s conditions). *)

val cost : t -> float
(** [C(n)]: the optimal total service cost [Pi(Psi^*(n))]. *)

val c : t -> float array
(** The vector [C(0) .. C(n)], recomputed in one [O(n)] pass
    ({!Streaming_dp.costs}): the solver's rows keep [D] and [B] but
    not [C], and the pass gives the values the sweep computed, bit for
    bit. *)

val d : t -> float array
(** The vector [D(0) .. D(n)] ([D(i) = infinity] for the first request
    on each server).
    @raise Invalid_argument on an out-of-range internal index
    (unreachable for a {!solve} result). *)

val marginal_bounds : t -> float array
(** [b_1 .. b_n] (index 0 unused, [0.]).
    @raise Invalid_argument on an out-of-range internal index
    (unreachable for a {!solve} result). *)

val running_bounds : t -> float array
(** [B_0 .. B_n].
    @raise Invalid_argument on an out-of-range internal index
    (unreachable for a {!solve} result). *)

val schedule : t -> Schedule.t
(** Reconstructs an optimal schedule by backtracking the stored
    argmins: an [O(n + m)] walk on the first call, memoised after.  The result is feasible
    ({!Schedule.validate}), in standard form, and its
    {!Schedule.cost} equals {!cost} up to rounding.  Caches come
    sorted by server, then start, transfers by time, then destination
    ({!Schedule.caches}, {!Schedule.transfers}).
    @raise Invalid_argument if {!Schedule.of_sorted_columns} rejects
    a piece or their order (unreachable for a {!solve} result:
    {!Streaming_dp.schedule}). *)

val pivot_of : t -> int -> int option
(** For introspection/tests: the pivot index [kappa] chosen for
    [D(i)], if [D(i)] was obtained through Lemma 4.
    @raise Invalid_argument when [i] is out of range
    ({!Streaming_dp.pivot_at}'s bound check). *)
