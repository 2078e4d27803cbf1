(* S3 fixture: [dead_export] has no product user (only test/ calls
   it); [used_export] has one in bin/; [kept_export] is dead but
   suppressed; [sibling_export] is used by a sibling unit. *)
val used_export : int -> int
val dead_export : int -> int

(* dcache-sema: allow S3 — fixture keeps a deliberately dead export *)
val kept_export : int -> int
val sibling_export : int -> int
