(** Summary statistics for experiment reporting.

    Includes a streaming accumulator (Welford), exact order statistics
    over collected samples, simple histograms, and ordinary
    least-squares fits — the log-log variant is used to estimate the
    empirical scaling exponent of the offline algorithms
    (experiment E6 in DESIGN.md). *)

(** {1 Streaming accumulator} *)

type acc
(** Streaming accumulator for count / mean / variance / extrema. *)

val acc_create : unit -> acc
val acc_add : acc -> float -> unit
val mean : acc -> float
(** Mean of added samples; [nan] when empty. *)

val stddev : acc -> float
(** Square root of the unbiased sample variance; [nan] when fewer than
    two samples. *)

(* dcache-sema: allow S3 — seed case "stats: mean/variance/extrema" *)
val min_value : acc -> float
(* dcache-sema: allow S3 — seed case "stats: mean/variance/extrema" *)
val max_value : acc -> float

(** {1 Compensated summation}

    Folding many small cost increments with bare [+.] loses low-order
    bits one request at a time (dcache_sema rule S4).  The [kahan]
    accumulator uses Neumaier's variant of compensated summation: the
    running error of each addition is captured and folded back into
    the total, so the result is exact to within one final rounding. *)

type kahan
(** Mutable compensated accumulator. *)

(* dcache-sema: allow S3 — test/schedule_reference.ml sums with it; S4's documented fix *)
val kahan_create : unit -> kahan

(* dcache-sema: allow S3 — test/schedule_reference.ml sums with it; S4's documented fix *)
val kahan_add : kahan -> float -> unit
(** Adds one term.  Once the running sum is non-finite, compensation
    stops and the IEEE sum is kept ([+inf] stays [+inf], not [nan]). *)

(* dcache-sema: allow S3 — test/schedule_reference.ml sums with it; S4's documented fix *)
val kahan_total : kahan -> float
(** The compensated total of everything added so far; [0.] when
    nothing was added. *)

(** {1 Order statistics} *)

val percentiles : float array -> float array -> float array
(** [percentiles samples ps]: each probe [p] in [\[0,100\]], linear
    interpolation between closest ranks, after one sort of one copy
    (the array is not modified; probes need not be sorted).
    Raises [Invalid_argument] on an empty array. *)

val median : float array -> float

(** {1 Histogram} *)

type histogram = {
  lo : float;
  hi : float;
  counts : int array;  (** one cell per bin, left-closed bins *)
  underflow : int;
  overflow : int;
}

(* dcache-sema: allow S3 — seed case "stats: histogram binning" *)
val histogram : bins:int -> lo:float -> hi:float -> float array -> histogram

(** {1 Least squares} *)

(* dcache-sema: allow S3 — seed case "stats: linear fit" *)
val linear_fit : (float * float) array -> float * float
(** [linear_fit points] returns [(slope, intercept)] of the OLS line.
    Requires at least two points with distinct x. *)

val loglog_slope : (float * float) array -> float
(** Slope of the OLS fit to [(log x, log y)]: the empirical scaling
    exponent of [y] in [x].  All coordinates must be positive. *)
