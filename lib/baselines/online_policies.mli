open Dcache_core

(** Online strategies the paper's Speculative Caching is measured
    against (experiments E1, E9, E10).

    Each deterministic policy returns an explicit {!Schedule.t}
    describing exactly what it cached and transferred, so its cost
    comes from the same {!Schedule.cost} as the offline optimum and
    its feasibility from the same {!Schedule.validate}. *)

type outcome = {
  name : string;
  schedule : Schedule.t;
  cost : float;
}

val classic_lru : capacity:int -> Cost_model.t -> Sequence.t -> outcome
(** The capacity-oriented classic policy of Table I: at most
    [capacity] simultaneous copies, hit when the requesting server
    holds one, otherwise transfer in and evict the least recently used
    copy when full.  Maximises hit ratio, ignores monetary cost —
    included to quantify the paper's cost-driven-vs-capacity-driven
    contrast.
    @raise Invalid_argument if [capacity < 1]. *)

val sc : ?epoch_size:int -> Cost_model.t -> Sequence.t -> outcome
(** The paper's speculative caching, via {!Online_sc.run}, wrapped in
    the same interface (its schedule comes from
    {!Online_sc.schedule_of_run}).
    @raise Invalid_argument if [epoch_size < 1]
    ({!Online_sc.run}'s condition). *)

val randomized_sc :
  rng:Dcache_prelude.Rng.t -> Cost_model.t -> Sequence.t -> outcome
(** SC with a window drawn once per run from the exponential-density
    distribution of randomized ski rental ([f(x) = e^x / (e - 1)] on
    [\[0, 1\]], scaled by [lambda / mu]).  An extension beyond the
    paper, documented in DESIGN.md section 8.
    @raise Invalid_argument if the drawn window is not positive
    ({!Online_sc.run}'s condition, unreachable for valid models). *)

(* dcache-sema: allow S3 — seed case "baselines: per-copy randomized SC is feasible and consistent" *)
val randomized_sc_per_copy :
  rng:Dcache_prelude.Rng.t -> Cost_model.t -> Sequence.t -> outcome
(** SC with an independent ski-rental window drawn at {e every copy
    refresh} (the faithful randomized-ski-rental adaptation, compared
    to {!randomized_sc}'s one draw per run).
    @raise Invalid_argument if a drawn window is not positive
    ({!Online_sc.run}'s condition, unreachable for valid models). *)

val all_deterministic :
  ?lru_capacity:int -> Cost_model.t -> Sequence.t -> outcome list
(** Every deterministic policy, for comparison tables, in this order:
    - ["static-home"]: the single copy never moves from server 0;
      every request elsewhere is served by a transfer whose copy is
      dropped immediately.  Cost: [mu * t_n + lambda * #{i : s_i <> 0}];
    - ["follow"]: a single copy migrates to every requesting server
      (the optimal strategy if replication were forbidden, the
      migrate-only shortest path of [Dcache_spacetime]).  Cost:
      [mu * t_n + lambda * #{i : s_i <> s_{i-1}}];
    - ["cache-everywhere"]: replicate on first touch and never delete,
      one transfer per new server: the "cloud caches are infinite,
      keep everything" strawman of Section I;
    - {!classic_lru} at [lru_capacity] (default [2]), then {!sc}.
    @raise Invalid_argument if [lru_capacity < 1]
    ({!classic_lru}'s condition). *)
