open Dcache_core

(** Discrete-event simulator for the mobile-cloud data service.

    The engine owns the clock, the set of resident copies (server 0
    holds the item at time 0, as in the paper), timers, and the bill;
    a {!Policy.POLICY} makes the decisions.  Events are delivered in
    time order; a timer armed for exactly a request time fires {e
    after} that request, matching the closed speculative window
    [t in [t_p', t_p' + delta_t]] of the SC algorithm.  After the last
    request the run ends: caching is billed up to the horizon [t_n]
    and later timers are discarded (they could only affect cost beyond
    the horizon).

    The engine enforces the problem's invariants and raises
    {!Engine_error} when a policy violates one: serving without a
    resident copy, fetching from a server that holds nothing,
    dropping the last copy, double-fetching to an occupied server,
    arming a timer in the past, or failing to serve a request.

    Costs default to the homogeneous model but can be overridden
    per-server / per-pair ({!costs}) — the heterogeneous mode of
    DESIGN.md section 8.  The returned {!Schedule.t} records what
    physically happened (resident intervals and transfers) and, under
    homogeneous costs, prices to exactly the metrics' total. *)

type costs = {
  mu_of : int -> float;
  lambda_of : src:int -> dst:int -> float;
  upload_of : int -> float;
}

exception Engine_error of string

type result = { metrics : Metrics.t; schedule : Schedule.t }

val run : ?costs:costs -> (module Policy.POLICY) -> Cost_model.t -> Sequence.t -> result
