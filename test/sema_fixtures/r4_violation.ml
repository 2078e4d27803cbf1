(* R-rule fixture: R4 — polymorphic compare on a Schedule.t. *)

let same_plan a b = (a : Schedule.t) = b
