(* Order statistics of one metric's samples. *)

type t = { samples : int; median : float; q1 : float; q3 : float; min : float; max : float }

(* Quartiles by the "exclusive" method of Python's
   [statistics.quantiles(data, n=4)], so the spread printed here is the
   one a reader recomputes from the raw values. *)
let of_list values =
  let xs = Array.of_list values in
  Array.sort Float.compare xs;
  let len = Array.length xs in
  if len = 0 then invalid_arg "Summary.of_list: no samples";
  let quartile i =
    if len = 1 then xs.(0)
    else
      let m = len + 1 in
      let j = Int.max 1 (Int.min (len - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((xs.(j - 1) *. float_of_int (4 - delta)) +. (xs.(j) *. float_of_int delta)) /. 4.0
  in
  {
    samples = len;
    median = quartile 2;
    q1 = quartile 1;
    q3 = quartile 3;
    min = xs.(0);
    max = xs.(len - 1);
  }
