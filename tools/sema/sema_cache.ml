(* Digest-keyed incremental cache.

   One entry per cmt file, keyed by a digest of the analyzer-version
   stamp plus the unit's binary artifacts, so both a source edit and a
   rules update invalidate exactly what they should.  The payload is
   the per-unit analysis: raw (pre-suppression) local findings, the
   export/use sets S3 is assembled from, and the unit's call graph.
   Every cross-module join — S3 liveness, the effect summary and
   may-raise fixpoints behind S2/S6/S7, and suppression tracking — is
   recomputed each run from cached parts, which is why the cache can
   be per-file at all.

   [version] guards the Marshal format; the rule-semantics stamp is
   [Sema_rules.analyzer_version], folded into each entry's digest by
   the engine. *)

type entry = { digest : string; analysis : Sema_rules.unit_analysis }

let version = 6

let digest_of_files paths =
  paths
  |> List.map (fun p -> match Digest.file p with d -> d | exception Sys_error _ -> "absent")
  |> String.concat ""
  |> Digest.string

let load path =
  if not (Sys.file_exists path) then []
  else
    match
      In_channel.with_open_bin path (fun ic ->
          let v : int = Marshal.from_channel ic in
          if v <> version then []
          else (Marshal.from_channel ic : (string * entry) list))
    with
    | entries -> entries
    | exception _ -> []

let save path entries =
  match
    Out_channel.with_open_bin path (fun oc ->
        Marshal.to_channel oc version [];
        Marshal.to_channel oc (entries : (string * entry) list) [])
  with
  | () -> ()
  | exception Sys_error _ -> ()
