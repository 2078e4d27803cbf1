(* S6 through a call into an aliased unit: [D.shuffle] is
   [S6_deep.shuffle], which draws two calls down *)
module D = S6_deep

let generate_noisy spec = D.shuffle spec
