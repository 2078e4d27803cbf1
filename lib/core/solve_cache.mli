(** Digest-keyed memo cache for {!Offline_dp.solve}.

    Sweep-heavy workloads (regret sweeps, rolling-horizon re-planning,
    the serve-metrics loop) re-solve the offline DP on identical
    [(cost model, sequence)] inputs; this module amortises those calls
    behind an MD5 digest of the instance — the model's three rates as
    IEEE bits plus the digest of {!Sequence.fingerprint} — with bounded
    capacity and least-recently-used eviction.

    The bookkeeping discipline (typed per-cache stats, per-entry hit
    counts, [clear]) is modeled on coq-lsp's [Memo] tables; the table
    holds at most 64 entries.
    Counters [solve_cache.hit]/[miss]/[evict] and the [solve_cache.size]
    gauge are registered with [dcache_obs], so a Recording sink (e.g.
    [dcache serve-metrics]) exports them at the Prometheus [/metrics]
    endpoint.

    The cache is a module-level table and is not domain-safe: callers
    that share it across {!Prelude.Pool} domains must serialise
    access externally (the repo's solver sweeps shard by instance
    instead). *)

val solve : Cost_model.t -> Sequence.t -> Offline_dp.t
(** Like {!Offline_dp.solve}, but memoised.  A hit returns the
    physically-same solver result (so downstream
    {!Offline_dp.schedule} memoisation is shared too); a miss runs the
    sweep, stores it, and evicts the least-recently-used entry when
    the table holds 64.
    @raise Invalid_argument as {!Offline_dp.solve} on invalid input
    (nothing is cached in that case). *)

type stats = {
  hits : int;  (** lookups served from the table (cumulative) *)
  misses : int;  (** lookups that ran the sweep (cumulative) *)
  evictions : int;  (** entries dropped by the LRU bound (cumulative) *)
  size : int;  (** live entries right now *)
}

val stats : unit -> stats

val publish_freqs : unit -> unit
(** Export the live entries' hit counts, most-used first (an entry
    that never hit counts [0]), through the labeled
    [solve_cache.entry_freq] gauge family: one child per popularity
    rank ([rank="0"] is the hottest entry, 8 ranks) plus
    [rank="other"] carrying the summed tail; unused ranks are zeroed.
    No-op under the [Noop] sink.
    Call it from the serving loop whenever a scrape-fresh profile is
    wanted. *)

val clear : unit -> unit
(** Drops every entry.  Cumulative counters ([hits], [misses],
    [evictions]) are preserved — they describe traffic, not contents. *)
