(** Log-scale duration histograms (HDR-style) for quantile telemetry.

    A histogram is a flat array of atomic int buckets over a
    log2-with-sub-buckets layout: values [0 .. 15] get one exact
    bucket each, and every higher power-of-two octave is split into
    16 sub-buckets, so any recorded value is off by at most 1/16
    (6.25%) from its bucket's representative, the bucket's upper
    bound.
    Recording is three atomic bumps — no allocation, safe from any
    domain — and bucket counts are commutative sums, so totals and
    every quantile read back from them are independent of how work
    was split across domains (the histogram side of the
    width-independence contract tested in [test/test_obs.ml] and
    [test/test_audit.ml]).

    Values are [int]s; the instrumentation records nanoseconds (or
    virtual clock ticks under test).  Negative values clamp to
    bucket 0. *)

type t

val create : unit -> t
(** Fresh empty histogram (944 zeroed cells). *)

val record : t -> int -> unit
(** Count one value.  Lock-free; callable from pool task domains. *)

val count : t -> int
(** Total number of recorded values. *)

val sum : t -> int
(** Exact sum of recorded values (commutative int adds, so
    deterministic at any domain count). *)

val reset : t -> unit
(** Zero all cells. *)

val quantiles : t -> float array -> float array
(** [quantiles h qs], for each probe [q] in [0,1]: the upper bound of
    the bucket holding the value of rank [ceil (q * count)] — an
    overestimate by at most 1/16.  [0.] when empty.  One cumulative
    walk for all probes, which must be sorted ascending.  A pure
    function of the bucket counts, hence deterministic at any domain
    count. *)
