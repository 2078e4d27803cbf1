(** Arrival processes: when requests happen.

    All processes yield strictly increasing positive times, suitable
    as the time column of {!Dcache_core.Sequence.of_columns}. *)

type t =
  | Uniform of { gap : float }
      (** fixed spacing [gap] between consecutive requests *)
  | Poisson of { rate : float }
      (** exponential inter-arrival times with the given rate *)
  | Pareto of { shape : float; scale : float }
      (** heavy-tailed inter-arrivals: long quiet periods broken by
          dense bursts, the "bursty" regime of mobile services *)
  | Periodic of { base_rate : float; peak_rate : float; period : float }
      (** non-homogeneous Poisson with a sinusoidal rate between
          [base_rate] and [peak_rate] over each [period] — the
          day/night cycle of a user-facing service (simulated by
          thinning) *)

val generate : Dcache_prelude.Rng.t -> t -> n:int -> float array
(** [n] strictly increasing times starting after [0].  Every gap is
    floored at [1e-9].  The uniform, Poisson and Pareto gaps are drawn
    straight into the returned array ({!Dcache_prelude.Rng.fill_exponential},
    {!Dcache_prelude.Rng.fill_pareto}) and summed there, so no arrival
    boxes a float; [Periodic] thins as it goes.
    @raise Invalid_argument if [n < 0] or a parameter is out of range
    (a rate, gap, shape, scale or period that is not positive, [nan]
    included, or a peak below the base), checked before the first
    draw, so also when [n = 0]. *)

val pp : Format.formatter -> t -> unit
