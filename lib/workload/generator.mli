open Dcache_core

(** Putting arrivals and placements together into problem instances. *)

type spec = {
  m : int;
  n : int;
  arrival : Arrival.t;
  placement : Placement.t;
}

val generate : Dcache_prelude.Rng.t -> spec -> Sequence.t
(** Draws one instance.  Deterministic in the generator state. *)

val generate_seeded : seed:int -> spec -> Sequence.t
(** Convenience: fresh generator from [seed]. *)

val standard_suite :
  Cost_model.t -> m:int -> n:int -> seed:int -> (string * Sequence.t) list
(** The named workload mix used across the experiment tables (E7,
    E9, E10, E12):
    uniform / zipf / mobility ring and clique / bursty / round-robin,
    plus the adversarial families of {!Adversary}.  Arrival gaps are
    scaled to the model's speculative window so every family straddles
    the cache-vs-transfer decision boundary. *)

