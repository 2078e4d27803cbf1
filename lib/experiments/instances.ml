open Dcache_core

let fig2_model = Cost_model.unit

(* Derivation: the optimal schedule must show cache intervals of
   lengths 1.4, 0.2 and 1.6 and four transfers.  With the requests
   below the recurrences give C(6) = 7.2 through the D-branch anchored
   at C(3): s^1 caches [0, 1.4] (serving r2) plus the bridge
   [1.4, 1.6], s^3 caches [1.6, 3.2] (serving r6), and r1, r3, r4, r5
   are served by transfers. *)
let fig2 () =
  Sequence.of_list ~m:3
    [ (1, 1.2); (0, 1.4); (2, 1.6); (1, 3.1); (0, 3.15); (2, 3.2) ]

let fig2_expected_caching = 3.2

let fig6_model = Cost_model.unit

(* Derivation (DESIGN.md section 5): the text's worked computation
   fixes t_1..t_4 and all C values; D(5) = 6.5 forces r5 = (s^2, 2.6)
   via the pivot kappa = 4, D(6) = 7.1 forces r6 = (s^2, 3.2)
   (sigma_6 = 0.6 = B_6 - B_5), and D(7)'s four candidate lines pin
   r7 = (s^3, 4.0).  r8 completes n = 8; the text computes nothing
   beyond C(7), so any valid t_8 works — we use (s^4, 4.4). *)
let fig6 () =
  Sequence.of_list ~m:4
    [ (1, 0.5); (2, 0.8); (3, 1.1); (0, 1.4); (1, 2.6); (1, 3.2); (2, 4.0); (3, 4.4) ]

let fig6_expected_c = [| 0.0; 1.5; 2.8; 4.1; 4.4; 6.5; 7.1; 8.9 |]
let fig6_expected_d7 = 9.2
let fig6_expected_d4 = 4.4

(* Fig 7 shows one epoch with five transfers among four servers; the
   figure's coordinates are not recoverable, so this trace reproduces
   the *structure*: transfers to fresh servers, in-window cache hits,
   simultaneous source/target expirations and a last-copy
   extension. *)
let fig7 () =
  let model = Cost_model.unit in
  let seq =
    Sequence.of_list ~m:4
      [
        (1, 0.4) (* transfer 1: s^1 -> s^2 *);
        (1, 0.8) (* hit inside the window on s^2 *);
        (2, 1.0) (* transfer 2 *);
        (3, 1.3) (* transfer 3; a source/target pair expires at 2.3 *);
        (0, 3.5) (* transfer 4, served by the extended last copy on s^4 *);
        (2, 4.0) (* transfer 5: epoch of size 5 completes, reset keeps s^3 *);
        (2, 4.3) (* first request of the next epoch: cache hit *);
      ]
  in
  (model, seq)
