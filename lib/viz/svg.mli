open Dcache_core

(** SVG space-time diagrams.

    The paper communicates everything through space-time figures
    (Figs 1, 2, 6-9); this module draws their executable counterparts:
    time on the x-axis, one horizontal lane per server, cache intervals
    as bars, transfers as arrows between lanes, requests as dots.  The
    output is a standalone [<svg>] document viewable in any browser —
    useful both to eyeball schedules and to regenerate paper-style
    figures from real runs. *)

type options = {
  width : int;  (** canvas width in px (default 840) *)
  lane_height : int;  (** per-server lane height in px (default 48) *)
  title : string option;
}

val default_options : options

(* dcache-sema: allow S3 — seed case "svg: elements balance on random schedules" *)
val schedule_svg : ?options:options -> Sequence.t -> Schedule.t -> string
(** One diagram of the schedule over the instance. *)

val comparison_svg :
  ?options:options -> Sequence.t -> (string * Schedule.t) list -> string
(** Several schedules of the same instance stacked vertically with
    sub-titles — e.g. optimal vs speculative caching. *)

(* dcache-sema: allow S3 — seed case "svg: file write" *)
val write : filename:string -> string -> unit
(** Writes an SVG document to disk. *)
