(* Clean fixture: allocates freely, exports nothing, and accumulates
   only ints. *)

let triples xs = List.map (fun x -> (x, x, x)) xs

let count xs =
  let n = ref 0 in
  for i = 0 to Array.length xs - 1 do
    n := !n + xs.(i)
  done;
  !n

(* a hot function that only sizes and reads its own state is clean:
   its words are held to a measured budget, not checked here, and S5
   looks only for obs setup calls *)
let masked_sum xs =
  let buf = Array.make 4 1 in
  let n = ref 0 in
  for i = 0 to Array.length xs - 1 do
    n := !n + xs.(i) + buf.(i land 3)
  done;
  !n
[@@hot]
