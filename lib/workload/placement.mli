(** Placement processes: where requests happen.

    The paper motivates cloud data caching with mobile accesses whose
    spatial-temporal {e trajectories} are highly predictable ([2],
    [3]).  No public trace of such a service exists, so this module
    synthesises the locality spectrum (see DESIGN.md, Substitutions):

    - [Uniform_random] — no locality at all (hardest for any cache);
    - [Zipf] — skewed popularity without temporal structure;
    - [Mobility] — a user walking a Markov chain over servers: with
      probability [stay] the next request comes from the same server,
      otherwise the user hops to a uniformly random other server (or a
      ring neighbour when [ring] is set, modelling adjacent cells).
      High [stay] reproduces the "93% predictable" trajectory regime;
    - [Round_robin] — deterministic cycling, the worst case for
      speculative windows when paired with just-too-slow arrivals;
    - [Multi_user] — superposition of several mobility walkers: the
      shared-item scenario of the paper's introduction, where distinct
      users pull the copy in different directions. *)

type t =
  | Uniform_random
  | Zipf of { exponent : float }
  | Mobility of { stay : float; ring : bool }
  | Round_robin
  | Multi_user of { users : int; stay : float; ring : bool }
      (** several independent mobility walkers sharing the item (a
          family album, a team document); each request comes from a
          uniformly chosen user's current cell *)

val generate : Dcache_prelude.Rng.t -> t -> m:int -> n:int -> int array
(** [n] server indices in [\[0, m)].  A mobility walker stays with one
    {!Dcache_prelude.Rng.bernoulli} draw per request, so no placement
    boxes a float.
    @raise Invalid_argument if [m < 1], [n < 0], a Zipf exponent is
    negative, [users < 1], or a [stay] is not a probability in
    [\[0, 1\]] ([nan] is none). *)

val pp : Format.formatter -> t -> unit
