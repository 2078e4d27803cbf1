(* Compiled into test/: a test-only use, which does not keep
   [S3_dead.dead_export] alive. *)

let use = S3_dead.dead_export 41
