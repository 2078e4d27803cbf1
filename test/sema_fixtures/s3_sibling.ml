(* Compiled into lib/core/ beside s3_dead: a sibling unit of the same
   library, whose use keeps [S3_dead.sibling_export] alive. *)

let use = S3_dead.sibling_export 41
