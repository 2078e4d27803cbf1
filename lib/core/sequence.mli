(** A validated problem instance: [m] fully connected servers and a
    time-ordered request vector [r_1 .. r_n] (Section III).

    An instance is two columns, the servers and the times of
    [r_1 .. r_n].  The boundary request [r_0 = (s^1, 0)] is implicit:
    every index-based accessor accepts [0 .. n] and answers [(0, 0)]
    at [0].  The paper's dummy requests [r_{-j} = (s^j, -inf)] are
    represented by {!prevs} returning [-1]. *)

type t = private {
  m : int;  (** number of servers *)
  server : int array;  (** [server.(i - 1)] is [s_i]; [r_0] is not stored *)
  time : float array;  (** [time.(i - 1)] is [t_i]; [r_0] is not stored *)
}
(** The record is private so that a per-request loop in another module
    can read the columns in place: under [-opaque], {!time} returns
    each float boxed, while [seq.time.(i - 1)] is an unboxed load.
    Request [i] sits at index [i - 1].  The columns are read-only:
    nothing stops a write, but everything else relies on the validation
    {!of_columns} ran, and a batch solve ([Streaming_dp.of_sequence])
    keeps reading the time column as its rows' times after it
    returns. *)

val of_columns : m:int -> servers:int array -> times:float array -> (t, string) result
(** [of_columns ~m ~servers ~times] is the instance whose request
    [r_i] is [(servers.(i-1), times.(i-1))].  It validates that
    [1 <= m <= Sys.max_array_length], both columns have the same
    length, every server index
    is in [\[0, m)], and times are finite, strictly increasing and
    strictly positive (so they come after [r_0]).  The columns are
    adopted, not copied: the caller gives them up and must not write
    to them afterwards.  Every other constructor goes through this
    one. *)

val create_exn : m:int -> Request.t array -> t
(** {!of_columns} on the requests' servers and times.
    @raise Invalid_argument when {!of_columns} would return an
    error. *)

val of_list : m:int -> (int * float) list -> t
(** Convenience for literals: [(server, time)] pairs, validated as in
    {!create_exn}.
    @raise Invalid_argument on a negative server or non-finite time
    ({!Request.make}) or when {!of_columns} would return an error. *)

val m : t -> int
(** Number of servers. *)

val n : t -> int
(** Number of real requests (excluding [r_0]). *)

val server : t -> int -> int
(** [server t i] for [i] in [\[0, n\]]; [server t 0 = 0]. *)

val time : t -> int -> float
(** [time t i] for [i] in [\[0, n\]]; [time t 0 = 0]. *)

val requests : t -> Request.t array
(** The [n] user requests (a fresh copy). *)

val horizon : t -> float
(** [t_n], or [0] when [n = 0]: the end of the service window. *)

val prevs : t -> int array
(** [prevs t] is the paper's [p(i)] for every [i] in [\[0, n\]], in
    one [O(n + m)] pass: the greatest [j < i] with [s_j = s_i], or
    [-1] when no earlier event exists on that server (the dummy
    request at [-inf]).  Note [p(i) = 0] is possible only for requests
    on server [0], and [p(0) = -1].  The server interval is
    [sigma_i = t_i - t_{p(i)}], [infinity] when [p(i) = -1]; callers
    compute it where they read it.  A fresh array on every call. *)

val fingerprint : t -> string
(** A canonical binary encoding of the instance: [m] and [n] as 64-bit
    integers, then each request's server index as a 32-bit integer and
    the IEEE bits of its time as a 64-bit one, all little-endian
    ([16 + 12 n] bytes).  Two instances produce the same bytes iff
    they are the same problem, which is what {!Solve_cache} digests
    for keying. *)

val sub : t -> int -> t
(** [sub t k] is the instance restricted to the first [k] requests
    ([1 <= k <= n] — with [k = 0] the empty instance).
    @raise Invalid_argument if [k < 0] or [k > n]. *)
