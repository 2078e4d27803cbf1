(** A single static-analysis finding, shared by every pass.

    The rule is a free-form id ("R1".."R4" for the Parsetree lint,
    "S2".."S8" for the cmt-based semantic pass) so the suppression,
    baseline and SARIF machinery in {!Report_engine} / {!Report_sarif}
    works for both without knowing the catalogs. *)

type step = { st_path : string; st_line : int; st_text : string }
(** One hop of an interprocedural witness chain. *)

type t = {
  path : string;
  line : int;
  col : int;
  rule : string;
  message : string;
  flow : step list;
      (** Witness chain for interprocedural findings, finding site
          first; empty for local findings.  Rendered as SARIF
          [codeFlows]/[relatedLocations]; deliberately ignored by
          {!compare}, {!to_human}, {!to_json} and the baseline format,
          so chains never affect matching or determinism pins. *)
}

val normalize_path : string -> string
(** Drops leading [./]/[../] segments and a [_build/<context>/] prefix
    so findings compare stably whether produced from the source tree
    or inside a dune action. *)

val step : path:string -> line:int -> string -> step
(** [step ~path ~line text] is one chain hop, path normalized. *)

val v : path:string -> line:int -> col:int -> rule:string -> ?flow:step list -> string -> t

val make : path:string -> loc:Location.t -> rule:string -> ?flow:step list -> string -> t
(** Anchor a finding at the start of a compiler location. *)

val compare : t -> t -> int
(** Path, then line, then column, then rule. *)

val to_human : t -> string
(** [path:line:col rule message]. *)

val json_escape : string -> string
val to_json : t list -> string
