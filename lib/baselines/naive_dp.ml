open Dcache_core

let solve_vectors model seq =
  let n = Sequence.n seq in
  let mu = model.Cost_model.mu in
  let lam_eff = Float.min model.Cost_model.lambda model.Cost_model.upload in
  let prev = Sequence.prevs seq in
  let sigma i =
    let p = prev.(i) in
    if p >= 0 then Sequence.time seq i -. Sequence.time seq p else infinity
  in
  let b = Array.make (n + 1) 0.0 and big_b = Array.make (n + 1) 0.0 in
  for i = 1 to n do
    b.(i) <- Float.min lam_eff (mu *. sigma i);
    big_b.(i) <- big_b.(i - 1) +. b.(i)
  done;
  let c = Array.make (n + 1) 0.0 and d = Array.make (n + 1) infinity in
  for i = 1 to n do
    let q = prev.(i) in
    if q >= 0 then begin
      let base = (mu *. sigma i) +. big_b.(i - 1) in
      let best = ref (c.(q) +. base -. big_b.(q)) in
      (* full scan of the cover index set pi(i) = {k | p(k) < p(i) <= k < i} *)
      for k = q to i - 1 do
        if prev.(k) < q && d.(k) < infinity then begin
          let cand = d.(k) +. base -. big_b.(k) in
          if cand < !best then best := cand
        end
      done;
      d.(i) <- !best
    end;
    let step = c.(i - 1) +. (mu *. (Sequence.time seq i -. Sequence.time seq (i - 1))) +. lam_eff in
    c.(i) <- Float.min d.(i) step
  done;
  (c, d)

let solve model seq =
  let c, _ = solve_vectors model seq in
  c.(Sequence.n seq)
