(** Polymorphic binary min-heap.

    Used as the event queue of the discrete-event simulator and by
    Dijkstra's search over the space-time graph.  All operations are
    the textbook [O(log n)] sift operations; [peek]/[is_empty] are
    [O(1)]. *)

type 'a t

val create : cmp:('a -> 'a -> int) -> 'a t
(** [create ~cmp] makes an empty heap ordered by [cmp] (minimum
    first). *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit

val peek : 'a t -> 'a option
(** Smallest element, without removing it. *)

val pop : 'a t -> 'a option
(** Removes and returns the smallest element. *)

val pop_exn : 'a t -> 'a
(** @raise Invalid_argument on an empty heap. *)

val clear : 'a t -> unit

val to_sorted_list : 'a t -> 'a list
(** Non-destructive: the heap contents in ascending order. *)
