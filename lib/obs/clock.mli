(** Injected time sources for {!Obs} recorders.

    A clock is a function returning nanoseconds as [int] (63 bits is
    ~292 years — plenty).  Recorders never read ambient time
    directly: every timestamp in a trace comes from the clock the
    recorder was created with, so tests can substitute {!ticks} and
    obtain byte-reproducible trace {e structure} while production
    traces carry real durations from {!monotonic}. *)

type t = unit -> int
(** Current time in nanoseconds.  Must be non-decreasing. *)

(* dcache-sema: allow S3 — seam: tests substitute a hand-rolled clock for the wall clock *)
val of_fn : (unit -> int) -> t
(** Wrap an arbitrary nanosecond source. *)

val now : t -> int
(** Read the clock. *)

val monotonic : unit -> t
(** Wall-derived nanoseconds with origin at clock creation; the
    default for human-facing traces.  Uses [Unix.gettimeofday] under
    the hood — keep it out of anything whose {e output} must be
    deterministic (install it only in recording sinks). *)

(* dcache-sema: allow S3 — seam: the deterministic trace tests substitute the tick clock *)
val ticks : unit -> t
(** Virtual clock: each read returns 0, 1, 2, … counted per domain,
    so a span's tick duration measures exactly the clock reads of its
    own body — independent of what other pool domains do
    concurrently.  Timestamps become a deterministic function of each
    domain's record order; used by the reproducibility tests, among
    them the width-1-vs-4 audit readback test. *)
