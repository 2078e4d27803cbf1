(** Plain-text table rendering for experiment reports.

    All EXPERIMENTS.md tables and the [experiments] binary print
    through this module so that paper-vs-measured rows share one
    format. *)

type align = Left | Right

type column = { header : string; align : align }

val column : ?align:align -> string -> column
(** Column with a header; numeric columns default to [Right]. *)

type t

val create : column list -> t

val add_row : t -> string list -> unit
(** Row cells, one per column.  Raises [Invalid_argument] on a cell
    count mismatch. *)

(* dcache-sema: allow S3 — seed case "table: rendering and alignment" *)
val render : t -> string
(** ASCII-art rendering with a header separator. *)

val print : t -> unit
(** [render] to stdout followed by a newline. *)

val fmt_float : ?prec:int -> float -> string
(** Formats a float for a cell; infinities become ["inf"]. *)
