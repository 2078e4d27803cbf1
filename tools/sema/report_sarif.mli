(** SARIF 2.1.0 rendering of findings. *)

val render :
  tool_name:string ->
  tool_version:string ->
  rules:(string * string) list ->
  Report_finding.t list ->
  string
(** [render ~tool_name ~tool_version ~rules findings] is a complete
    SARIF log: [rules] lists [(id, short description)] for the tool's
    catalog, each with a [helpUri] anchored into
    docs/STATIC_ANALYSIS.md; each finding becomes an error-level
    result anchored at its file, line and column.  A finding with a
    non-empty witness chain ([Report_finding.flow]) additionally
    carries it as [codeFlows] and [relatedLocations]. *)
