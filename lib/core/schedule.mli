(** Explicit schedules: cache intervals and transfers (Definition 1).

    A schedule is the set of caching intervals [H(s, x, y)] and
    transfers [Tr(src, dst, t)] chosen to serve a request sequence.
    This module prices schedules and — crucially for the reproduction
    — {e validates} them against the problem constraints of
    Section III:

    + at least one server caches the item at every time of
      [\[t_0, t_n\]];
    + the item is present on [s_i] at [t_i] for every request (either
      a cache interval covers [t_i] or a transfer ends at
      [(s_i, t_i)]);
    + transfers depart from servers that actually hold a copy, and
      every cache interval is {e sourced}: it begins at time [0] on
      server [0], at an incoming transfer, or adjacent to a preceding
      interval on the same server.

    Requests served by a transfer whose copy is immediately deleted
    (the red squares of Fig 1) occupy no cache interval at all —
    possession at a point costs nothing. *)

type cache = { server : int; from_time : float; to_time : float }

type source =
  | From_server of int
  | From_external  (** upload from external storage, priced at [beta] *)

type transfer = { src : source; dst : int; time : float }

type t
(** Stored as six columns: the caches sorted by server, then start,
    then end time, and the transfers sorted by time, then destination.
    Pricing and the queries below read the columns and build no list. *)

val of_sorted_columns :
  server:int array ->
  from_time:float array ->
  to_time:float array ->
  src:int array ->
  dst:int array ->
  time:float array ->
  t
(** The schedule of the cache pieces
    [(server.(k), from_time.(k), to_time.(k))] and the transfers
    [(src.(k), dst.(k), time.(k))], where source [-1] is an upload
    ({!From_external}), given in the stored order: caches by
    (server, from, to), transfers by (time, dst).  It checks every
    piece as {!make} describes, in the same order and with the same
    messages (caches first, then transfers), then checks the order,
    and adopts the arrays: the caller gives them up and must not
    write to them afterwards.
    @raise Invalid_argument on columns of one kind that differ in
    length, on a malformed piece, on a source below [-1], or on two
    neighbouring pieces out of order. *)

val make : caches:cache list -> transfers:transfer list -> t
(** The schedule of the pieces of the two lists, stable-sorted into
    the stored order, so pieces that tie keep their input order.
    [make] does not validate feasibility (see {!validate}) but
    rejects malformed pieces: empty or reversed intervals, negative
    times, a transfer whose source equals its destination.
    @raise Invalid_argument on the first malformed piece, caches
    before transfers, each list in its order. *)

val empty : t

val caches : t -> cache list
(** Sorted by server, then start time, then end time.  Each call
    builds a fresh list from the columns: bind it once rather than
    calling this per request. *)

val transfers : t -> transfer list
(** Sorted by time, then destination.  Each call builds a fresh list,
    as {!caches} does. *)

val caching_cost : Cost_model.t -> t -> float
(** [mu] times the summed interval lengths, a compensated (Neumaier)
    sum in cache order, exactly as a {!Dcache_prelude.Stats.kahan}
    accumulator would give. *)

val transfer_cost : Cost_model.t -> t -> float
(** [lambda] per server-to-server transfer and [beta] per upload,
    summed as {!caching_cost} sums. *)

val cost : Cost_model.t -> t -> float
(** Total cost [Pi(Psi)]: caching plus transfer (uploads priced at
    [beta]). *)

val num_transfers : t -> int
(* dcache-sema: allow S3 — seed case "schedule: copy queries" (Lemma 5's one copy) *)
val num_copies_at : t -> float -> int
(** Number of cache intervals covering the given instant (inclusive
    endpoints). *)

val holds_copy_at : t -> server:int -> time:float -> bool

val validate : Sequence.t -> t -> (unit, string list) result
(** All feasibility constraints above.  Also rejects overlapping cache
    intervals on one server (double caching a single item is never
    minimal) and caching beyond the horizon [t_n] (dead-end caches).
    Returns every violated constraint, not just the first.
    @raise Invalid_argument if a piece is structurally malformed
    (negative server, non-finite or reversed interval endpoints): only
    well-formed pieces get the [result] verdict. *)

val is_standard_form : Sequence.t -> t -> bool
(** Observation 1: every transfer ends on a request, i.e. its
    [(dst, time)] coincides with some [(s_i, t_i)]. *)

val render : Sequence.t -> t -> string
(** ASCII space-time diagram (one row per server: [=] cached, [*]
    request, [T] transfer arrival, [^] transfer departure). *)

val pp : Format.formatter -> t -> unit
