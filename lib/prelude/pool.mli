(** A small deterministic domain pool for experiment sweeps.

    Built on [Domain] + [Mutex]/[Condition] only (no libraries).  A
    pool of [d] domains keeps [d - 1] helper domains parked on a
    condition variable; {!parallel_init} posts a chunked index range,
    the submitting thread works alongside the helpers, and results are
    collected {e positionally} into the output array.

    {2 Determinism contract}

    Parallel output is byte-identical to sequential output — at any
    domain count, under any chunk schedule — provided each task is a
    pure function of its index:

    - randomness comes from {!Rng.derive}[ parent i] (never from a
      shared generator, whose draw order would depend on scheduling);
    - tasks write no shared mutable state and results are only
      combined positionally after the join.

    Under that contract [parallel_init p n f] is observationally
    [Array.init n f], just faster.  Everything in
    [lib/experiments] and {!Dcache_workload.Ratio_search} goes through
    this module so [DCACHE_DOMAINS=1] is always an exact oracle for
    [DCACHE_DOMAINS=k].

    The default width is the [DCACHE_DOMAINS] environment variable,
    else [Domain.recommended_domain_count ()]; always clamped to
    [1..64]. *)

type t
(** A pool.  One job runs at a time; nesting a parallel region inside
    a task of the same pool is rejected. *)

(* dcache-sema: allow S3 — width-independence tests hold a 1- and a 4-wide pool at once; [get] keeps one *)
val create : ?domains:int -> unit -> t
(** [create ~domains ()] spawns [domains - 1] helper domains (so
    [~domains:1] is a zero-overhead sequential pool).  Defaults to the
    default width.
    @raise Invalid_argument if [domains < 1]. *)

(* dcache-sema: allow S3 — joins the pools of [create]; the case "pool: shutdown semantics" *)
val shutdown : t -> unit
(** Joins the helper domains.  Idempotent.  Submitting to a
    shut-down pool raises [Invalid_argument]. *)

val parallel_init : t -> int -> (int -> 'a) -> 'a array
(** [parallel_init t n f] is [Array.init n f] with the calls to [f]
    distributed over the pool in chunks (about four per domain).  If
    any task raises, the first exception (in completion order) is
    re-raised after the job drains; the pool remains usable.
    @raise Invalid_argument on negative [n], nested use, or a
    shut-down pool. *)

val get : unit -> t
(** The shared pool, created lazily at the default width and
    re-created if the default changed since.  Intended for the
    single-threaded experiment drivers; do not call from inside a
    pool task. *)
