(* R-rule fixture: every rule violated once, every violation suppressed
   with an allow comment (same-line and preceding-line forms). *)

let roll () = Random.int 6 (* dcache-sema: allow R1 *)

(* dcache-sema: allow R2 *)
let is_free cost = cost = 0.0

let cheapest outcomes = List.hd outcomes (* dcache-sema: allow R3 *)

(* dcache-sema: allow all *)
let same_plan a b = (a : Schedule.t) = b
