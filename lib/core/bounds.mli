(** Lower bounds on the optimal service cost (Definitions 4 and 5).

    The marginal cost bound of request [r_i] is
    [b_i = min(lambda_eff, mu * sigma_i)] with
    [lambda_eff = min(lambda, beta)]: serving [r_i] costs at least a
    transfer or an upload, or at least extending the server's own
    cache from the previous request on it.  The paper has no uploads
    ([beta = infinity]), where [lambda_eff = lambda].  The running bound
    [B_i = b_1 + ... + b_i] lower-bounds the cost of any feasible
    schedule for the prefix [r_1 .. r_i] (so [B_i <= C(i)]).  These
    quantities drive both the fast offline recurrence (Section IV) and
    the online competitive analysis (Lemma 8), and they are the
    [b_i] and [B_i] {!Streaming_dp} keeps, bit for bit. *)

(* dcache-sema: allow S3 — oracle: the fig6 and DP-bound cases check b_i against it *)
val marginal : Cost_model.t -> Sequence.t -> float array
(** [marginal model seq] is [b] with [b.(i) = min(lambda_eff, mu *
    sigma_i)] for [1 <= i <= n] and [b.(0) = 0]. *)

(* dcache-sema: allow S3 — oracle: B_i, the running bounds Offline_dp must equal *)
val running : Cost_model.t -> Sequence.t -> float array
(** [running model seq] is [bigB] with [bigB.(i) = B_i] (prefix sums
    of {!marginal}); [bigB.(0) = 0]. *)

val lower_bound : Cost_model.t -> Sequence.t -> float
(** [B_n]: a lower bound on the cost of any schedule serving the whole
    sequence.  Note the bound does not include the mandatory caching
    cost between requests, so it can be loose; it is exactly the bound
    the paper uses.  Equal bit for bit to the last entry of
    {!running} and to [Offline_dp.running_bounds]'s, computed in one
    pass without either array. *)
