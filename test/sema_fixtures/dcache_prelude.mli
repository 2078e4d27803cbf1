(* Stub of the Dcache_prelude modules the R-rule clean fixture uses. *)

module Rng : sig
  type t

  val int : t -> int -> int
end

module Float_cmp : sig
  val approx_eq : float -> float -> bool
end
