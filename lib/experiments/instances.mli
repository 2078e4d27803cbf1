open Dcache_core

(** The paper's worked-example instances, reconstructed.

    The figures themselves are not machine-readable, but the numbers
    worked in the text pin down consistent instances; see DESIGN.md
    section 5 and EXPERIMENTS.md for the derivations. *)

val fig2_model : Cost_model.t
(** [mu = 1, lambda = 1] (stated under Fig 2). *)

val fig2 : unit -> Sequence.t
(** Instance whose optimal schedule has caching cost [3.2]
    ([1.4 + 0.2 + 1.6]) and transfer cost [4.0] (4 transfers), total
    [7.2], exactly as read off the paper's Fig 2. *)

val fig2_expected_caching : float

val fig6_model : Cost_model.t
(** [mu = 1, lambda = 1] (stated in Section IV). *)

val fig6 : unit -> Sequence.t
(** The running example of Section IV (m = 4, n = 8).  The text fixes
    [C = 0, 1.5, 2.8, 4.1, 4.4, 6.5, 7.1, 8.9] and
    [D(4) = 4.4, D(7) = 9.2]; this instance reproduces every one of
    those values (and [C(8) = 10.3]). *)

val fig6_expected_c : float array
(** [C(0) .. C(7)] as stated in the paper's text. *)

val fig6_expected_d7 : float
val fig6_expected_d4 : float

val fig7 : unit -> Cost_model.t * Sequence.t
(** A small trace in the spirit of Fig 7's single-epoch illustration:
    five transfers among four servers with speculative windows between
    them. *)
