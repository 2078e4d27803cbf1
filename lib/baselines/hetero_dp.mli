open Dcache_core

(** Exact solver for the {e heterogeneous} cost model.

    The paper's algorithms assume one [mu] and one [lambda]
    (Section III); this module drops that assumption: per-server
    caching rates [mu_s] and per-pair transfer prices
    [lambda_{s,t}].  Heterogeneity breaks two load-bearing pillars of
    the fast DP:

    - transfers may be cheaper through an intermediate server, so
      prices are first closed under composition (all-pairs shortest
      paths, since chained instantaneous transfers accrue no caching);
    - copies can profitably be {e warehoused} on a cheap-storage
      server that never requests anything, so the per-interval copy
      set ranges over all of [2^m], not just request servers.

    The DP state is the copy-holder set during each inter-request
    interval (piecewise-constant sets and event-time transfers are
    without loss of generality because every cost is linear in time).
    Complexity [O(n 4^m)] — exact and exponential; its role is to
    measure how far the paper's homogeneous optimum drifts when its
    assumption is violated (experiment E11). *)

type costs

val make_costs_exn : mu:float array -> lambda:float array array -> costs
(** [mu] has length [m]; [lambda] is [m x m], diagonal ignored.  All
    rates must be positive and finite.  Transfer prices are closed
    under composition internally.
    @raise Invalid_argument naming the first violated condition. *)

(* dcache-sema: allow S3 — oracle: uniform-rate cases compare solve with Offline_dp *)
val of_homogeneous : Cost_model.t -> m:int -> costs
(** Uniform matrix; {!solve} then agrees with
    {!Dcache_core.Offline_dp} (property-tested).
    @raise Invalid_argument if the cost model is invalid for [m]
    servers ({!make_costs_exn}'s conditions). *)

(* dcache-sema: allow S3 — oracle: the closure cases read the closed prices *)
val lambda_of : costs -> src:int -> dst:int -> float
(** The {e closed} (multi-hop) price. *)

(* dcache-sema: allow S3 — oracle: replays the witness through Dcache_sim.Engine *)
val engine_costs : costs -> Dcache_sim.Engine.costs
(** The same prices in the form the discrete-event engine consumes
    (uploads disabled). *)

val solve : costs -> Sequence.t -> float
(** Exact optimal cost.
    @raise Invalid_argument if [m > 9] (state space [4^m]) or the
    sequence's [m] disagrees with the cost matrix. *)

(* dcache-sema: allow S3 — oracle: witness schedules for Schedule.validate and the engine *)
val solve_schedule : costs -> Sequence.t -> float * Schedule.t
(** Optimal cost plus a witness schedule (feasible per
    {!Dcache_core.Schedule.validate}; multi-hop transfers are emitted
    as their direct closed-price edge).
    @raise Invalid_argument under the same conditions as {!solve}. *)

val price : costs -> Schedule.t -> float
(** Prices an arbitrary schedule under the heterogeneous rates (used
    to bill the homogeneous planner's schedule in experiment E11).
    Upload transfers price to [infinity]. *)
