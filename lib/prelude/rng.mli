(** Deterministic, splittable pseudo-random number generator.

    A reproduction repository lives or dies on reproducibility: every
    workload, shuffle and randomized test in this project draws from
    this module, never from [Stdlib.Random], so that a seed printed in
    a report regenerates the exact same experiment on any OCaml
    version.  The implementation is xoshiro256** seeded through
    splitmix64, the stream-splitting scheme recommended by its
    authors. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] makes a generator from a 63-bit seed.  Equal seeds
    yield equal streams. *)

val split : t -> t
(** [split t] derives an independent generator from [t], advancing
    [t].  Use one split per worker/experiment so adding draws to one
    component never perturbs another. *)

val derive : t -> int -> t
(** [derive t i] is an independent child stream keyed by [i].  Unlike
    {!split} it does {e not} advance [t]: it is a pure function of the
    parent's current state and the index, so [derive t 0 .. derive t k]
    yield the same streams whatever order they are taken in — the
    contract {!Pool} relies on to make parallel sweeps byte-identical
    to sequential ones.  Distinct indices give statistically
    independent streams (the 256-bit state and the index are mixed
    through splitmix64).
    @raise Invalid_argument if [i < 0]. *)

(* dcache-sema: allow S3 — seed case "rng: copy preserves stream" *)
val copy : t -> t
(** [copy t] duplicates the current state (same future stream). *)

(* dcache-sema: allow S3 — seed case "rng: deterministic from seed" *)
val bits64 : t -> int64
(** Next raw 64 random bits. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  [bound] must be
    positive. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val float_in : t -> float -> float -> float
(** [float_in t lo hi] is uniform in [\[lo, hi)]. *)

val bool : t -> bool

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p] in [\[0, 1\]]:
    one {!float} draw, compared with [p] inside the module so the draw
    is never boxed. *)

val exponential : t -> rate:float -> float
(** Exponentially distributed with the given rate (mean [1/rate]).
    @raise Invalid_argument unless [rate > 0]. *)

val fill_exponential : t -> rate:float -> float array -> unit
(** [fill_exponential t ~rate a] stores an {!exponential} draw in each
    cell of [a], in index order: the draws [a]'s length of single
    draws would give, with no float boxed.
    @raise Invalid_argument unless [rate > 0], even for an empty [a]. *)

val fill_pareto : t -> shape:float -> scale:float -> float array -> unit
(** [fill_pareto t ~shape ~scale a] stores a Pareto draw, support
    [\[scale, infinity)] and tail exponent [shape], in each cell of
    [a], in index order, with one {!float} draw per cell and no float
    boxed.
    @raise Invalid_argument unless [shape > 0] and [scale > 0], even
    for an empty [a]. *)

type weights
(** Non-negative category weights, prepared for repeated draws. *)

val weights : float array -> weights
(** @raise Invalid_argument if a weight is negative or NaN, or none
    is positive. *)

val categorical : t -> weights -> int
(** [categorical t w] draws an index with probability proportional to
    its weight, with one {!float} draw and [O(log k)] work for [k]
    weights. *)

(* dcache-sema: allow S3 — seed case "rng: shuffle is a permutation" *)
val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
