(* R-rule fixture: R3 — partial accessor in library code. *)

let cheapest outcomes = List.hd outcomes
