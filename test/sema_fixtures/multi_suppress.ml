(* One suppression comment silencing two different rules on the line
   below it: the [Recording] sink built in a [@@hot] body is S5, the
   bare [+.] fold on a cost-named float accumulator is S4. *)

type recorder = { mutable events : int }
type sink = Noop | Recording of recorder

let weighted_total (xs : float array) =
  let total = ref 0.0 in
  for i = 0 to Array.length xs - 1 do
    (* dcache-sema: allow S4 S5 — one comment covers both rules on the next line *)
    let s = Recording { events = i } in total := !total +. (match s with Noop -> xs.(i) | Recording r -> float_of_int r.events)
  done;
  !total
[@@hot]
