(** Tolerant floating-point comparisons.

    Schedule costs are sums of products of request times and rates, so
    two mathematically equal costs computed along different recurrence
    paths can differ by a few ulps.  Every cost equality in tests and
    validators goes through this module with a single, project-wide
    default tolerance. *)

val default_eps : float
(** [1e-9]: absolute-or-relative tolerance used across the project. *)

val approx_eq : ?eps:float -> float -> float -> bool
(** [approx_eq a b] iff [|a - b| <= eps * max(1, |a|, |b|)].  Treats
    two infinities of the same sign as equal. *)

val approx_le : ?eps:float -> float -> float -> bool
(** [approx_le a b] iff [a <= b] up to tolerance. *)

(* dcache-sema: allow S3 — seed case "float_cmp: ordering"; R2's documented fix *)
val compare_approx : ?eps:float -> float -> float -> int
(** Three-way comparison collapsing approximately equal values to
    [0]. *)
