(* a suppression that fires for nothing must be reported stale *)
let double x = x * 2

(* dcache-sema: allow S4 — stale on purpose: nothing here folds a float cost *)
let quadruple x = double (double x)
