(* Compiled into bin/: a product user that keeps
   [S3_dead.used_export] alive. *)

let use = S3_dead.used_export 41
