(* Stub of lib/core/schedule.mli: the names the R-rule fixtures use. *)

type t

val make : caches:(int * float * float) list -> transfers:(float * int * int) list -> t
val empty : t
val cost : Cost_model.t -> t -> float
