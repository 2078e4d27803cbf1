(* R-rule fixture: idiomatic, R-clean code — the shapes the rules
   steer towards. *)

let roll rng = Dcache_prelude.Rng.int rng 6
let is_free cost = Dcache_prelude.Float_cmp.approx_eq cost 0.0
let cheapest = function [] -> None | o :: _ -> Some o
let col time horizon width = min (width - 1) (int_of_float (time /. horizon))
let same_cost model a b =
  Dcache_prelude.Float_cmp.approx_eq (Schedule.cost model a) (Schedule.cost model b)
