(** The Double-Transfer (DT) schedule and the proof-side reductions of
    Section V (Definitions 10-12, Lemmas 5-8).

    The DT transformation re-attributes every speculative caching cost
    [omega] (the unused trailing window of a copy, [omega <= lambda])
    to the transfer edge that created the copy, whose weight becomes
    [lambda + omega <= 2 lambda]; the initial copy's tail becomes the
    initial cost on server 0.  By construction [Pi(DT) = Pi(SC)].

    The reductions then compare DT against an optimal schedule on a
    request set where both behave identically:

    - {e V-reduction} (Definition 11): on every inter-request gap with
      [mu * dt_{i-1,i} > lambda] exactly one server caches the item in
      both schedules (Lemma 5), so both costs shrink by
      [mu * dt - lambda] per wide gap;
    - {e H-reduction} (Definition 12): every request with
      [mu * sigma_i < lambda] is served by its own cache
      [H(s_i, t_{p(i)}, t_i)] in both schedules (Lemma 6), so both
      shrink by that caching cost and the request leaves the instance.

    After both, [Pi(DT') <= 3 n' lambda] (Lemma 7) and
    [Pi(OPT') >= n' lambda] (Lemma 8), giving Theorem 3.  This module
    computes every quantity in that chain so tests and experiment E5
    can check them on arbitrary instances. *)

type weighted_transfer = {
  wt_dst : int;
  wt_time : float;
  weight : float;  (** [lambda + omega], in [\[lambda, 2 lambda\]] *)
}

type t = {
  initial_cost : float;  (** [omega_1^1]: the initial copy's folded tail *)
  transfers : weighted_transfer list;
  plain_caching : float;  (** SC caching cost minus all folded tails *)
  dt_cost : float;  (** [Pi(DT)], provably equal to [Pi(SC)] *)
  sc_cost : float;  (** [Pi(SC)] as reported by the run *)
}

val of_run : Cost_model.t -> Online_sc.run -> t
(** Builds the DT schedule from an SC run's copy segments
    (Definition 10).  [O(n + m)].
    @raise Invalid_argument if the run kept no segments (it was not
    made with [~record_events:true]). *)

type reduction = {
  v_amount : float;
      (** total weight removed by V-reduction: [sum (mu*dt - lambda)]
          over gaps with [mu*dt > lambda] *)
  h_amount : float;
      (** total weight removed by H-reduction: [sum mu*sigma_i] over
          requests with [mu*sigma_i < lambda] *)
  n' : int;  (** surviving requests [|R'|] after H-reduction *)
  dt_reduced : float;  (** [Pi(DT')] *)
  opt_reduced : float;  (** [Pi(OPT')] *)
  dt_upper : float;  (** Lemma 7 bound [3 n' lambda] *)
  opt_lower : float;  (** Lemma 8 bound [n' lambda] *)
}

val reduce : Cost_model.t -> Sequence.t -> sc_cost:float -> opt_cost:float -> reduction
(** Applies both reductions to the two costs.  The reduction amounts
    depend only on the instance (gap widths and server intervals), per
    Lemmas 5 and 6, so they are computed from the sequence alone. *)

val theorem3_holds : Cost_model.t -> Sequence.t -> Online_sc.run -> opt_cost:float -> bool
(** Checks the full chain on one instance:
    [Pi(DT) = Pi(SC)], every DT transfer weight [<= 2 lambda],
    [Pi(SC) <= 3 Pi(OPT)] — the end-to-end statement of Theorem 3.
    @raise Invalid_argument as {!of_run} does. *)
