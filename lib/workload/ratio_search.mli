open Dcache_core

(** Local search for instances that maximise the competitive ratio
    [Pi(SC) / Pi(OPT)].

    Theorem 3 proves the ratio never exceeds 3 but the paper gives no
    matching lower bound.  This hill-climber mutates request times
    (within their neighbours) and servers, accepting changes that push
    the ratio up, across several random restarts seeded with both
    random and hand-crafted adversarial instances.  Whatever it finds
    is a certified lower bound on the worst case — experiment E14
    reports it next to the proven upper bound. *)

type found = {
  ratio : float;
  sc_cost : float;
  opt_cost : float;
  seq : Sequence.t;
}

(* dcache-sema: allow S3 — seed cases "ratio_search: bound and consistency", "never worse than its seeds" *)
val evaluate : Cost_model.t -> Sequence.t -> found
(** Ratio of one instance (no search). *)

val search :
  ?restarts:int ->
  ?steps:int ->
  ?pool:Dcache_prelude.Pool.t ->
  rng:Dcache_prelude.Rng.t ->
  m:int ->
  n:int ->
  Cost_model.t ->
  found
(** Best instance found.  Defaults: 6 restarts of 1500 accepted-or-not
    mutation steps each.  Each restart hill-climbs with an independent
    stream ([Rng.derive rng restart]; [rng] itself is not advanced),
    so passing [?pool] runs the restarts in parallel with output
    byte-identical to the sequential search at any domain count.
    @raise Invalid_argument if [m < 2] or [n < 1]. *)
