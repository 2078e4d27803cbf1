(** Accounting produced by an engine run. *)

type t = {
  caching_cost : float;
  transfer_cost : float;
  upload_cost : float;
  total_cost : float;
  num_transfers : int;
  num_uploads : int;
  cache_hits : int;  (** requests served by a resident copy *)
  cache_misses : int;  (** requests needing a fetch or upload *)
  peak_copies : int;
  copy_time : float;  (** integral of the resident-copy count over time *)
}

(* dcache-sema: allow S3 — seed case "metrics: hit-ratio edge cases" *)
val hit_ratio : t -> float
(** [cache_hits / (hits + misses)]; [0.] with no requests (never
    [nan]: the ratio is always printable and aggregatable). *)

val pp : Format.formatter -> t -> unit
