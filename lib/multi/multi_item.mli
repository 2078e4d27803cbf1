open Dcache_core

(** Caching a catalogue of shared data items.

    The paper studies one shared item; its predecessor ([4], Wang,
    Veeravalli, Tham) extends the setting to many items whose caching
    and transfer costs must be balanced under practical constraints.
    This module rebuilds that layer on top of the single-item optimum:

    - {!plan}: items are independent under the plain cost model (costs
      scale with item size), so the exact catalogue optimum is the sum
      of per-item optima, each solved by the [O(mn)] DP;
    - {!plan_with_caching_budget}: a provider cap on total caching
      spend (storage is the metered resource) couples the items.  The
      planner relaxes the budget with a Lagrangian multiplier [theta]
      on caching cost — each evaluation solves every item exactly
      under rates [(mu * (1 + theta), lambda)] — and bisects [theta]
      until the spend meets the budget.  It returns both the feasible
      plan and the Lagrangian dual lower bound, so the optimality gap
      is visible rather than hidden. *)

type item = {
  label : string;
  size : float;  (** scales both caching and transfer costs *)
  requests : Request.t array;
}

type planned = {
  p_label : string;
  p_cost : float;  (** true cost (unscaled by any multiplier) *)
  p_caching : float;
  p_transfer : float;
  p_schedule : Schedule.t;
}

type plan = {
  items : planned list;
  total_cost : float;
  total_caching : float;
  total_transfer : float;
}

val plan : Cost_model.t -> m:int -> item list -> plan
(** Exact optimum for the whole catalogue (no coupling constraint).
    @raise Invalid_argument on duplicate labels, non-positive sizes or
    an invalid per-item request sequence. *)

val minimum_caching : Cost_model.t -> m:int -> item list -> float
(** The caching spend no plan can undercut: one copy of each item must
    exist at every instant of its service window
    ([sum_i mu * size_i * t_n(i)], constraint (1) of Section III). *)

type budgeted = {
  feasible : plan;  (** caching spend within the budget *)
  multiplier : float;  (** the [theta] that produced it *)
  dual_bound : float;
      (** Lagrangian lower bound on any plan meeting the budget; the
          gap [feasible.total_cost - dual_bound] bounds suboptimality *)
}

val plan_with_caching_budget :
  Cost_model.t -> m:int -> budget:float -> item list -> (budgeted, string) result
(** Errors when the budget is below {!minimum_caching} (no feasible
    plan exists).  The bisection on [theta] stops at a relative width
    of [1e-6]. *)
