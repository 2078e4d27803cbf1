(** Streaming form of the fast offline algorithm.

    The recurrences of Section IV consume requests strictly in time
    order and never revisit a decision, so the optimal-cost sweep is
    naturally {e incremental}: feed requests one at a time and read
    off the optimum-so-far after each.  A rolling-horizon deployment —
    logs arrive in batches, the provider re-plans the tail — gets
    exact prefix optima in [O(m)] time per request instead of
    re-running the batch solver.  Rows are stored in blocks, and a
    push that finds its block full appends the next one, as large as
    the stream so far up to 4 096 rows (64, 64, 128, ..., 2 048, then
    4 096 each), so no row is ever copied.

    {!Offline_dp} is a thin wrapper over this module, so both share
    one implementation of the recurrences and of schedule
    reconstruction. *)

type t

val create : Cost_model.t -> m:int -> t
(** Empty instance: the item sits on server [0] at time [0].
    @raise Invalid_argument if [m < 1]. *)

val of_sequence : Cost_model.t -> Sequence.t -> t
(** [create] and a [push] of every request of the sequence, in one
    block sized for the whole sequence up front, so nothing is ever
    grown.  This is the batch solve ({!Offline_dp.solve}).  It reads
    the sequence's columns in place and runs {!push}'s recurrence
    inlined, so no request's time is boxed, and it keeps the
    sequence's time column as its rows' times, read in place and
    never written: it allocates the block's planes, [D] and [B] per
    row, and nothing per request.  The result keeps the column alive.
    Pushing past its end appends blocks, unless the block's n + 1
    rows are not a multiple of 64: then it is copied once, times
    included, into a block of twice its rows, rounded up to a
    multiple of 64, the one case where rows move.  Either way the
    pushed times go into a block of the stream's own.
    @raise Invalid_argument under [push]'s conditions (unreachable for
    a validated {!Sequence.t}). *)

val push : t -> server:int -> time:float -> unit
(** Appends the next request.  [O(m)] time and amortised [O(m)] extra
    space; a push that fills its block appends the next one and copies
    no row.
    @raise Invalid_argument if the server is out of range or the time
    does not strictly exceed the previous request's. *)

val cost : t -> float
(** [C(n)]: optimal cost of serving everything pushed so far. *)

val cost_into : t -> float array -> int -> unit
(** [cost_into t cells k] stores {!cost} in [cells.(k)].  Unlike the
    result of {!cost}, a float stored into a float array is not boxed
    across a module boundary, so a per-request reader
    ([Dcache_sim.Auditor]) allocates nothing for it.
    @raise Invalid_argument if [k] is outside [cells]. *)

val costs : t -> float array
(** The vector [C(0) .. C(n)], in one [O(n)] pass.  The rows keep
    [D] and [B] beside the requests' times, but not [C]: a push reads
    [C] only at [r_{i-1}] and at [r_{p(i)}], the latest request on its
    server, so the state keeps [C] of each server's latest request and
    of the last request.  The pass takes [C(i) = D(i)] where {!push} chose
    the cache branch, else [push]'s step from [C(i-1)], so every
    value equals the one [push] computed, bit for bit. *)

val semi_cost_at : t -> int -> float
(** [D(i)] (Definition 7); [infinity] for the first request on a
    server.
    @raise Invalid_argument when [i] is out of range. *)

val marginal_at : t -> int -> float
(** [b_i = min(lambda_eff, mu sigma_i)] ([0] at [i = 0]), recomputed
    from the stored times exactly as {!push} computed it.
    @raise Invalid_argument when [i] is out of range. *)

val running_at : t -> int -> float
(** [B_i].
    @raise Invalid_argument when [i] is out of range. *)

val pivot_at : t -> int -> int option
(** The pivot [kappa] chosen for [D(i)], when Lemma 4 won.
    @raise Invalid_argument when [i] is out of range. *)

val schedule : t -> Schedule.t
(** Optimal schedule for the current prefix, by backtracking.  An
    [O(n + m)] walk on the first call after a push, and O(1)
    afterwards: the state is append-only, so the result is memoised
    per prefix length and repeated calls return the same (physically
    equal) schedule.  The walk never changes the solver's answers, so
    it can be interleaved with pushes.  It records at most one piece
    ending at each request and one transfer at each request in two
    per-request slot arrays, and emits the schedule's columns from
    them already in order ({!Schedule.of_sorted_columns}), sorting
    nothing.
    @raise Invalid_argument if {!Schedule.of_sorted_columns} rejects
    a piece or their order (unreachable: the walk emits only
    well-formed pieces, and an optimal schedule's pieces on one
    server do not overlap). *)

val to_sequence : t -> Sequence.t
(** The pushed requests as a validated {!Sequence}.
    @raise Invalid_argument if validation fails
    ({!Sequence.of_columns}; unreachable: [push] already enforced the
    same invariants). *)
