(** Learning-augmented speculative caching (an extension beyond the
    paper; DESIGN.md section 8).

    The paper motivates cloud data caching with the predictability of
    mobile trajectories ("93% of human behaviour") but only exploits
    it offline.  This module feeds predictions to the {e online}
    algorithm, in the spirit of learning-augmented ski rental (Purohit
    et al., NeurIPS 2018): each time a copy on server [s] is used, a
    {!predictor} estimates the time until the next local request, and
    the speculative window is set per-refresh:

    - predicted revisit within [delta_t / beta] (where
      [delta_t = lambda/mu] is the paper's break-even interval) → hold
      up to the prediction (padded): trust, at risk bounded by the cap
      [delta_t / beta];
    - predicted revisit beyond that → hold only [beta * delta_t],
      cutting the speculative tail the standard algorithm would waste.

    The trust parameter [beta] in [(0, 1]] trades consistency for
    robustness exactly as in ski rental: perfect predictions approach
    the offline serving decisions, while any prediction error costs at
    most the shrunken or padded window.  No competitive theorem is
    claimed here — the evaluation is empirical (experiment E12). *)

type predictor = server:int -> time:float -> float option
(** [predictor ~server ~time] estimates the delay until the next
    request on [server] strictly after [time]; [None] when the model
    has nothing to say (the algorithm falls back to the paper's
    window). *)

val oracle : Sequence.t -> predictor
(** Perfect lookahead (for consistency experiments).  Servers that are
    never requested again get [Some infinity] — "known never", as
    opposed to [None]'s "no information". *)

val noisy : rng:Dcache_prelude.Rng.t -> relative_error:float -> Sequence.t -> predictor
(** The oracle with multiplicative noise: each estimate is scaled by
    [exp(relative_error * g)] for a standard Gaussian [g] (so
    [relative_error = 0.] is the oracle).
    @raise Invalid_argument if [relative_error] is negative. *)

val frequency : Sequence.t -> predictor
(** A realistic log-mining predictor: estimates each server's
    inter-request delay as the running mean of the gaps observed so
    far on that server (no lookahead — an online statistic). *)

val run :
  ?beta:float ->
  ?record_events:bool ->
  predictor ->
  Cost_model.t ->
  Sequence.t ->
  Online_sc.run
(** Runs SC with the prediction-driven window policy.
    [beta] defaults to [0.5].
    @raise Invalid_argument unless [0 < beta <= 1]. *)
