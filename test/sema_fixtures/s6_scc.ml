(* S6 over a cycle: the draw sits in [descend]; the generator only
   reaches it through the mutual recursion of [walk] and [descend], so
   the breach needs the summary fixpoint to join the SCC *)
let rec walk n acc = if n = 0 then acc else descend (n - 1) acc
and descend n acc = walk n (Random.int 10 :: acc)

let generate_walk n = walk n []
