(** A single request [r = (s, t)]: the shared item is demanded on
    server [s] at time [t].

    Servers are numbered [0 .. m-1]; server [0] plays the role of the
    paper's [s^1], the initial holder of the item.  The paper's
    boundary request [r_0 = (s^1, 0)] is represented implicitly by
    {!Sequence}, so user-supplied requests must have strictly positive
    times. *)

type t = { server : int; time : float }

val make : server:int -> time:float -> t
(** @raise Invalid_argument on a negative server or a non-finite
    time. *)

(* dcache-sema: allow S3 — seed case "request: ordering"; R4's documented fix *)
val compare : t -> t -> int
(** Orders by time, then by server. *)

(* dcache-sema: allow S3 — seed case "request: ordering"; R4's documented fix *)
val equal : t -> t -> bool
