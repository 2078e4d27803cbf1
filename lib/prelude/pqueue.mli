(** Polymorphic binary min-heap.

    Used as the event queue of the discrete-event simulator and by
    Dijkstra's search over the space-time graph.  All operations are
    the textbook [O(log n)] sift operations; [peek] is [O(1)]. *)

type 'a t

val create : cmp:('a -> 'a -> int) -> 'a t
(** [create ~cmp] makes an empty heap ordered by [cmp] (minimum
    first). *)

val push : 'a t -> 'a -> unit

val peek : 'a t -> 'a option
(** Smallest element, without removing it. *)

val pop : 'a t -> 'a option
(** Removes and returns the smallest element. *)

(* dcache-sema: allow S3 — seed case "pqueue: clear" *)
val clear : 'a t -> unit
