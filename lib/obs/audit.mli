(** Streaming online-vs-offline competitive-ratio auditor.

    Feed it one [(online, opt)] cumulative-cost pair per request —
    the online policy's cost-so-far and the offline optimum of the
    same prefix — and it maintains, in [O(1)] per observation and
    with no allocation on the steady path:

    - the {b prefix ratio} [online / opt] over everything seen so far;
    - {b sliding-window} ratios and {b dynamic regret}
      ([online - opt] accrued per window of [window_size] requests),
      with ratio and regret quantiles fed into the
      [audit.window_ratios] and [audit.window_regret] span histograms
      ({!Histo_log}, 1 unit = 1e9 ticks);
    - a {b Theorem-3 bound monitor}: a prefix whose ratio exceeds
      [bound + epsilon] bumps the [audit.bound_violations] counter
      and is captured in a bounded ring of witness prefixes.  The
      paper proves SC 3-competitive, so with [bound = 3.0] {e any}
      firing is an implementation bug — the auditor doubles as a live
      correctness oracle.

    The module is solver-agnostic by design ([dcache_obs] sits below
    [dcache_core]): it never runs a policy, it only watches cost
    pairs.  [Dcache_sim.Auditor] wires it to [Online_sc.Incremental]
    and [Streaming_dp.push]; [dcache audit] and [dcache serve-metrics]
    report through it.  All probes ride the standard {!Obs} gating:
    under the [Noop] sink an [observe] does the arithmetic but
    touches no metric cell and allocates nothing. *)

type t

type window = {
  index : int;  (** 0-based window ordinal *)
  first : int;  (** first request index in the window (1-based) *)
  last : int;  (** last request index in the window *)
  online : float;  (** online cost accrued across the window *)
  opt : float;  (** offline-optimal cost accrued across the window *)
  ratio : float;  (** [online / opt] for the window, [1.0] when [opt = 0] *)
  regret : float;  (** [online - opt] for the window; negative is possible *)
  prefix_ratio : float;  (** whole-prefix ratio at window close *)
}

type witness = {
  at : int;  (** prefix length (request index) that violated *)
  w_online : float;  (** online cost of the violating prefix *)
  w_opt : float;  (** offline optimum of the violating prefix *)
  w_ratio : float;  (** their ratio at the violation *)
}

val ratio : online:float -> opt:float -> float
(** [online /. opt] when [opt > 0.], else [1.0] — the defined value
    for an empty/free prefix (an online policy pays nothing when the
    optimum is nothing, so 1.0 is the honest report and never leaves
    a stale reading behind). *)

val create :
  ?window_size:int ->
  ?bound:float ->
  ?epsilon:float ->
  ?witness_capacity:int ->
  ?item:string ->
  unit ->
  t
(** [window_size] requests per regret window (default [64]);
    [bound] is the competitive bound to monitor (default [3.0],
    Theorem 3); [epsilon] the slack before firing (default [1e-6],
    absorbing float rounding in the cost recurrences);
    [witness_capacity] the size of the violation ring (default [16],
    keeping the most recent witnesses).

    [item] names the stream this auditor watches in the labeled
    [audit.item_window_ratio] / [audit.item_windows] families
    ({!Obs.gauge_vec}): each closed window also sets this item's ratio
    child and bumps its window counter.  The children are resolved
    here, once — the observe path stays allocation-free — and
    cardinality is bounded by the family cap (past it, items collapse
    into the ["other"] child).  Without [item] only the unlabeled
    aggregates are touched.
    @raise Invalid_argument if [window_size < 1], [bound <= 0.],
    [epsilon < 0.], or [witness_capacity < 1]. *)

val observe : t -> online:float -> opt:float -> bool
(** Feed the cumulative costs after one more request.  Returns [true]
    iff this observation closed a window (read it back with
    {!last_window}).  Monotonicity of the inputs is the caller's
    contract; the auditor only requires them to be finite.
    [O(1)], allocation-free unless a violation witness is captured.
    @raise Invalid_argument if the auditor was {!flush}ed. *)

val flush : t -> bool
(** Close the current partial window, if any requests are pending in
    it ([true] iff a window was closed).  Call once at end-of-trace;
    the auditor is consumed — further {!observe}/{!flush} raise.
    @raise Invalid_argument if already flushed. *)

val last_window : t -> window option
(** The most recently closed window, materialised on demand ([None]
    before the first close). *)

val n : t -> int
(** Observations so far. *)

val windows_closed : t -> int

val prefix_online : t -> float
(** Latest cumulative online cost observed. *)

val prefix_opt : t -> float
(** Latest cumulative offline optimum observed. *)

val prefix_ratio : t -> float
(** {!ratio} of the latest observation ([1.0] before any). *)

val violations : t -> int
(** Bound-monitor firings so far (prefixes with
    [online > (bound + epsilon) * opt]). *)

val witnesses : t -> witness list
(** The retained violation witnesses, oldest first — at most
    [witness_capacity], keeping the most recent when the ring
    wraps. *)

val bound : t -> float
(** The monitored bound, as given to {!create}. *)
