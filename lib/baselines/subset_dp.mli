open Dcache_core

(** Exact reference algorithm over copy-set states.

    This solver is derived from the problem definition only — none of
    the paper's lemmas — and is therefore the independent ground truth
    used to property-test {!Dcache_core.Offline_dp}.

    State after serving [r_i]: the set [A] of servers holding a copy
    (always containing [s_i]).  Between consecutive requests a
    schedule keeps a non-empty subset [K] of [A] cached (dropping a
    copy anywhere but at the interval start is never cheaper, since
    caching cost is linear in time, so per-interval constant copy sets
    are without loss of generality; transfers at non-request times are
    likewise never needed, per Observation 1).  Transition cost:
    [mu * dt * |K|] plus, to serve [r_{i+1}], zero if
    [s_{i+1}] is in [K], else [min(lambda, beta)].

    Complexity: [O(n * 3^m)] time — exact but exponential in [m]; this
    plays the role the asymptotically slower prior-art optimal
    algorithms ([4], [6]) play in the paper's comparison. *)

val solve : ?max_copies:int -> Cost_model.t -> Sequence.t -> float
(** Optimal total cost.  [max_copies] caps the number of {e resident}
    copies held across an interval (transfer-served copies discarded
    immediately occupy no capacity); default unbounded.  This bridges
    Table I's classic fixed-capacity world ([max_copies = k]) and the
    paper's unbounded cloud model.  Note [max_copies = 1] is {e at
    most} the migrate-only optimum of {!Dcache_spacetime.Graph}: a
    beam-and-discard serve costs one transfer here, while a lone copy
    physically bouncing over and back costs two.
    @raise Invalid_argument if [m > 20] (state space too large) or
    [max_copies < 1]. *)

(* dcache-sema: allow S3 — oracle: seed case "offline: subset DP's own schedule is feasible with the same cost" *)
val solve_schedule : Cost_model.t -> Sequence.t -> float * Schedule.t
(** Optimal cost plus one optimal schedule reconstructed from the
    subset-DP argmins (used to cross-check the validator and
    standard-form claims on an independent witness).
    @raise Invalid_argument under the same conditions as {!solve}. *)
