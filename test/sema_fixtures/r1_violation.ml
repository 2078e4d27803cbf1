(* R-rule fixture: R1 — ambient randomness breaks seed-reproducibility.
   Compiled by test_lint.ml and analyzed from its .cmt. *)

let roll () = Random.int 6
