(** Closed time intervals and interval-set operations.

    Schedules are bags of cache intervals; validation, replay and
    accounting all need the same primitives: merging touching spans,
    coverage checks, total measure.  Centralising them keeps the
    tolerance handling (one {!Float_cmp} epsilon) in one place. *)

type t = { lo : float; hi : float }
(** A closed interval [\[lo, hi\]] with [lo <= hi]. *)

val make : lo:float -> hi:float -> t
(** @raise Invalid_argument if [hi < lo] or either bound is not
    finite. *)

(* dcache-sema: allow S3 — seed case "interval: construction and membership" *)
val contains : ?eps:float -> t -> float -> bool
(** Inclusive at both endpoints, up to tolerance. *)

(* dcache-sema: allow S3 — seed case "interval: overlap semantics" *)
val overlaps : ?eps:float -> t -> t -> bool
(** True when the closed intervals intersect in more than a point
    (shared endpoints do {e not} count as overlap). *)

val merge : ?eps:float -> t list -> t list
(** Union of the spans: sorted, with overlapping or touching intervals
    coalesced. *)

(* dcache-sema: allow S3 — seed case "interval: merge and measure" *)
val measure : ?eps:float -> t list -> float
(** Total length of the union (double-covered time counted once). *)

val first_gap : ?eps:float -> t list -> lo:float -> hi:float -> (float * float) option
(** The earliest maximal uncovered sub-range of [\[lo, hi\]], if
    any — what a coverage-violation error message should print. *)
