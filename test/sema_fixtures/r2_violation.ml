(* R-rule fixture: R2 — exact float comparison on a cost. *)

let is_free cost = cost = 0.0
