open Dcache_core

(** Descriptive statistics of a request trace.

    The quantities the caching algorithms actually feel: arrival
    density and burstiness, spatial locality (how trajectory-like the
    trace is — the paper's central workload hypothesis), per-server
    popularity skew, and where the revisit intervals sit relative to a
    cost model's break-even interval [lambda / mu]. *)

type t = {
  n : int;
  m : int;
  horizon : float;
  servers_used : int;  (** servers with at least one request *)
  mean_gap : float;  (** mean inter-arrival time *)
  median_gap : float;
  gap_cv : float;
      (** coefficient of variation of inter-arrivals: ~1 for Poisson,
          larger means burstier *)
  locality : float;
      (** fraction of requests on the same server as their predecessor
          — the trajectory signal *)
  mean_revisit : float;
      (** mean server interval [sigma_i] over requests with a finite
          one *)
  median_revisit : float;
  popularity : (int * int) array;
      (** (server, request count), most popular first *)
  top_share : float;  (** fraction of requests on the most popular server *)
  revisits : float array;
      (** every finite server interval [sigma_i], in request order —
          kept so model-dependent readouts stay exact *)
}

val analyze : Sequence.t -> t
(** @raise Invalid_argument on an empty trace. *)

(* dcache-sema: allow S3 — seed case "trace_stats: cacheability vs window" *)
val cacheability : Cost_model.t -> t -> float
(** Fraction of finite revisit intervals at or under the break-even
    interval [lambda / mu]: the share of revisits that a cached copy
    serves more cheaply than a transfer would.  High values mean the
    trace rewards caching; near zero means transfers dominate any
    reasonable policy. *)

val pp_with_model : Cost_model.t -> Format.formatter -> t -> unit
(** The statistics, then the model-dependent readout ({!cacheability}
    and the break-even interval); without revisits it prints "no
    revisits to cache".  A statistic the trace does not have, [nan] in
    the record (the cv and locality of a single request, the revisit
    figures of a trace that never returns to a server), prints as
    [none]. *)
