(** Regeneration of every table and figure (experiment index E1-E15
    of DESIGN.md).  The [dcache experiments] CLI subcommand routes
    here, so EXPERIMENTS.md is regenerated from a single source of
    truth. *)

val reports : (string * (quick:bool -> unit)) list
(** Every report, E1-E15 in EXPERIMENTS.md order, under the name
    [dcache experiments NAME] selects.  Each prints one
    self-contained report to stdout; [~quick:true] shrinks the sweeps
    (for tests and CI).  The parallel sweeps (E7, E8, E14) run on the
    shared {!Dcache_prelude.Pool.get} pool, whose width follows
    [DCACHE_DOMAINS]; their output is byte-identical at any width. *)
