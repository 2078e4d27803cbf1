(** Pass-agnostic machinery of [dcache_sema]: file discovery, inline
    suppression comments (marker [dcache-sema:]), and the checked-in
    baseline format. *)

(** {1 Files} *)

val read_file : string -> (string, string) result

val collect_files :
  ?skip:(string -> bool) -> suffixes:string list -> string list -> string list
(** Walk [roots] recursively collecting files matching one of
    [suffixes], sorted and deduplicated.  [skip] prunes directory or
    file basenames; the default skips [_build] and [.git]. *)

(** {1 Inline suppressions} *)

val marker : string
(** ["dcache-sema:"]: a comment carrying it, then [allow] and rule ids
    (or [all]), suppresses those rules' findings on its line. *)

val suppression_lines : string -> (int * string) list
(** Every (1-based line, trimmed text) in [source] carrying a
    {!marker} [allow] comment, whatever rules it names.  The
    stale-suppression gate compares this against the lines
    {!apply_suppressions_tracked} reports as used. *)

val apply_suppressions_tracked :
  string -> Report_finding.t list -> Report_finding.t list * int list
(** [apply_suppressions_tracked source findings] drops findings
    suppressed by a comment on their own line or on a comment-only
    line directly above, and returns the survivors with the sorted
    source lines whose comments suppressed at least one finding. *)

(** {1 Baseline} *)

type baseline_entry = { b_path : string; b_rule : string; b_message : string }

val parse_baseline : string -> baseline_entry list
(** One finding per non-comment line: [path<TAB>rule<TAB>message];
    line numbers are deliberately not part of the format. *)

val load_baseline : string -> (baseline_entry list, string) result
val baseline_line : Report_finding.t -> string

val apply_baseline :
  baseline_entry list -> Report_finding.t list -> Report_finding.t list * baseline_entry list
(** [(fresh, stale)]: findings not covered by any entry, and entries
    that covered nothing. *)
