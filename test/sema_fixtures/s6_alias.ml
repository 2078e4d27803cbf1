(* S6 through a module alias: [R.int] is [Random.int] *)
module R = Random

let pick n = R.int n
let generate_trace n = List.init n (fun i -> i + pick (i + 1))
