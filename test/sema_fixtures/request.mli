(* Stub of lib/core/request.mli for the R-rule fixtures. *)

type t

val make : server:int -> time:float -> t
