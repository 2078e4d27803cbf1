(* Suppression fixture: the S4 shape of the violation fixture,
   silenced by a [dcache-sema:] comment. *)

let total_of costs =
  let total = ref 0.0 in
  for i = 0 to Array.length costs - 1 do
    (* dcache-sema: allow S4 — fixture exercises suppression *)
    total := !total +. costs.(i)
  done;
  !total
