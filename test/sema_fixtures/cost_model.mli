(* Stub of lib/core/cost_model.mli for the R-rule fixtures. *)

type t

val delta_t : t -> float
