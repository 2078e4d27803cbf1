(** The streaming online-vs-offline audit pipeline.

    Wires the three streaming pieces together, one request at a time:
    [Online_sc.Incremental] (the online policy), [Streaming_dp]
    (exact offline prefix optima) and [Dcache_obs.Audit] (ratio /
    regret / Theorem-3 bound telemetry).  Each {!feed} costs one
    [Incremental.feed] ([O(log n)] amortised), one [Streaming_dp.push]
    ([O(m)]) and an [O(1)] [Audit.observe] — no re-solving, ever.
    The two costs cross from the solvers to [Audit] through a float
    array ([cost_into], [Audit.observe_cells]), so a feed boxes none
    of them.

    [dcache audit] replays a trace through this module;
    [dcache serve-metrics] drives one instance per batch so the
    [audit.*] metric families update per request. *)

module Audit = Dcache_obs.Audit

type t

type report = {
  requests : int;
  online_cost : float;  (** SC total cost (horizon-truncated) *)
  opt_cost : float;  (** offline optimum of the full instance *)
  final_ratio : float;  (** [Audit.ratio] of the totals *)
  windows : int;  (** closed windows, final partial one included *)
  violations : int;  (** Theorem-3 bound-monitor firings *)
  witnesses : Audit.witness list;  (** retained violating prefixes *)
}
(** A finished audit's summary.  [online_cost] is the online run's
    total cost; the run itself is not returned. *)

val create :
  ?window_size:int ->
  ?bound:float ->
  ?item:string ->
  ?epoch_size:int ->
  ?inflate:float ->
  ?on_window:(Audit.window -> unit) ->
  Dcache_core.Cost_model.t ->
  m:int ->
  t
(** [window_size], [bound] and [item] (the stream's label in the
    per-item [audit.item_*] metric families) go to {!Audit.create}; [epoch_size] to
    [Online_sc.Incremental.create].
    [inflate] (default [1.0]) multiplies the online cost {e as
    reported to the auditor} — fault injection for exercising the
    bound monitor: the policy itself is untouched, so [~inflate:4.0]
    must provoke violations on any instance with transfers.
    [on_window] fires synchronously with each closed window
    (per-window CLI output, batch hooks).
    @raise Invalid_argument if [m < 1], [inflate] is not positive, or
    any forwarded parameter is rejected by its module. *)

val feed : t -> server:int -> time:float -> unit
(** Route one request through policy, optimum and auditor.  A
    rejected request changes none of the three.
    @raise Invalid_argument on an out-of-range server, a non-finite
    or non-increasing time, or a finished pipeline; also when the
    request takes a cost past the largest float, after policy and
    optimum took it but before the auditor does ({!Audit.observe}). *)

(* dcache-sema: allow S3 — oracle: the hand-off cases read what Audit received, bit for bit *)
val audit : t -> Audit.t
(** The live auditor (prefix/window readbacks mid-stream). *)

val online_cost_so_far : t -> float
(** Uninflated [Incremental.cost_so_far]. *)

val opt_cost_so_far : t -> float
(** [Streaming_dp.cost] of the fed prefix. *)

val finish : t -> report
(** Flush the final partial window, close the online run at the last
    request's time, and summarise.  The pipeline is consumed.
    @raise Invalid_argument if already finished. *)
