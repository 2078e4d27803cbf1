(** Homogeneous cost model of the paper (Section III).

    Caching one copy for one unit of time costs [mu] on every server;
    transferring the item between any two servers costs [lambda];
    replication and deletion are free (folded into the transfer cost,
    as the paper assumes).  The optional [upload] cost [beta] prices
    fetching the item from external storage (vertex row [v_0] of the
    paper's space-time graph, Definition 2); the paper's algorithms
    never upload, which is the default ([beta = +inf]). *)

type t = private {
  mu : float;  (** caching cost per copy per unit time *)
  lambda : float;  (** transfer cost between any two servers *)
  upload : float;  (** upload cost [beta] from external storage; [infinity] disables *)
}

val make : ?upload:float -> mu:float -> lambda:float -> unit -> t
(** @raise Invalid_argument if [mu] or [lambda] is not positive and
    finite (NaN and [infinity] included), or [upload <= 0].
    [upload = infinity] is legal: it means "no upload". *)

val unit : t
(** [mu = 1, lambda = 1]: the model used in the paper's worked
    examples (Fig 2 and Fig 6). *)

val delta_t : t -> float
(** The speculative window [lambda / mu] of the online SC algorithm
    (Section V): keeping a copy this long costs exactly one
    transfer. *)

val caching : t -> duration:float -> float
(** Cost of caching one copy for [duration] time units. *)

val add : t -> caching:float -> transfers:int -> float
(** [caching +. float transfers *. lambda]: the sanctioned way to
    total a run whose transfers all cost [lambda].  Counting transfers
    and multiplying once keeps the transfer component exact, where a
    running [+. lambda] fold drops low-order bits per iteration
    (dcache_sema rule S4). *)

val pp : Format.formatter -> t -> unit
