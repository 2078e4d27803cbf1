(** The online Speculative Caching (SC) algorithm (Section V).

    Every copy stays active for a speculative window
    [delta_t = lambda / mu] past its last use: if the next local
    request arrives within the window, serving it from cache costs no
    more than a transfer would have; otherwise the copy expires.  A
    request finding no live local copy is served by a transfer from
    the most recent copy (the server of [r_{i-1}]), which the
    expiration rules keep alive: on simultaneous expiration of a
    transfer's source and target, the target survives; the last
    remaining copy anywhere is always extended rather than dropped.
    The paper proves this policy 3-competitive (Theorem 3).

    Operational notes, matching the paper's description:

    - epochs: after [epoch_size] transfers, all copies except the one
      on the current server are dropped and the counters reset (the
      default is a single unbounded epoch — the competitive ratio
      holds per epoch either way);
    - the item starts on server [0] at time [0] with a fresh window;
    - reported caching cost is truncated at the horizon [t_n]:
      speculative tails after the last request serve nobody, mirroring
      the no-dead-end-cache property of schedules (this only lowers
      SC's cost, by less than [m * lambda]);
    - consecutive last-copy extensions across a long idle gap are
      collapsed into one jump — observable behaviour (which copies
      live, every cost) is unchanged. *)

type serve_kind =
  | By_cache  (** a live local copy covered the request *)
  | By_transfer of int  (** transfer from the given source server *)

type event =
  | Served of { index : int; server : int; time : float; kind : serve_kind }
  | Expired of { server : int; time : float }
  | Extended of { server : int; time : float; new_expiry : float }
      (** last-copy rule: the only live copy got a fresh window *)
  | Epoch_reset of { time : float; kept : int }

type segment = {
  seg_server : int;
  activated : float;
  deactivated : float;  (** truncated at the horizon for surviving copies *)
  by_transfer : bool;  (** [false] only for the initial copy on server 0 *)
  tail : float;
      (** unused trailing duration: deactivation minus last use; the
          speculative cost [omega] of Definition 10 is [mu * tail],
          and is always [<= lambda] *)
}

type run = {
  caching_cost : float;
  transfer_cost : float;
  total_cost : float;
  num_transfers : int;
  num_epochs : int;  (** completed resets + the final partial epoch *)
  serves : serve_kind array;
      (** index [1..n]; index [0] is a dummy [By_cache].  Filled by
          {!val-run}, one entry per request as it is served; every
          [By_transfer s] of one run is the same value.  Empty ([[||]])
          in a run returned by {!Incremental.finish}, which keeps no
          serve log: there each request's serve kind is in its
          [Served] event under [record_events]. *)
  events : event list;  (** chronological; empty unless [record_events] *)
  segments : segment list;
      (** every copy lifetime, chronological; empty unless
          [record_events] *)
}

(** Request-at-a-time SC.  {!val-run} is a loop over this module; the
    streaming auditor ({!Dcache_sim.Auditor}) feeds it in lockstep
    with [Streaming_dp.push] to watch the online-vs-offline ratio
    live.  The state machine is identical to {!val-run} — feeding the
    requests of a sequence in order and calling {!Incremental.finish}
    at its horizon returns the same {!type-run} record, field for
    field, except [serves]: the state keeps no serve log, so its
    [serves] is empty and, under [record_events], the [Served] events
    carry the same kinds in the same order. *)
module Incremental : sig
  type t
  (** An in-progress SC run: the item lives on server [0] at time [0]
      with a fresh window, no requests fed yet. *)

  val create :
    ?epoch_size:int ->
    ?record_events:bool ->
    ?window:float ->
    ?window_policy:(server:int -> time:float -> float) ->
    Cost_model.t ->
    m:int ->
    t
  (** Parameters are those of {!val-run}; [m] is the number of servers
      (a {!Sequence.t} validates it upfront, a stream cannot).
      @raise Invalid_argument if [m < 1], [epoch_size < 1], or
      [window] is not positive. *)

  val feed : t -> server:int -> time:float -> unit
  (** Serves one request: [O(log n)] amortised (expiry-queue
      traffic), constant work otherwise.  Allocates nothing unless
      [record_events] is set, apart from the amortised growth of the
      expiry queue (a [window_policy] may allocate on its own
      account): the state keeps the serve of the last request only.
      A request rejected for its server or its time leaves the state
      untouched.
      @raise Invalid_argument if the state is finished, [server] is
      outside [\[0, m)], [time] is not finite, or [time] does not
      exceed the previous request's time.
      @raise Invalid_argument if [window_policy] returns a
      non-positive window. *)

  val cost_so_far : t -> float
  (** Total SC cost of the prefix fed so far, with caching accrued up
      to the last request's time — exactly [(run model seq').total_cost]
      for [seq'] the fed prefix, since {!val-run} also truncates at the
      horizon.  [O(1)]: open segments are costed as
      [mu * (live * now - sum of activation times)]. *)

  val cost_into : t -> float array -> int -> unit
  (** [cost_into t cells k] stores {!cost_so_far} in [cells.(k)],
      by the same formula.  Under [-opaque] the result of
      {!cost_so_far} is boxed on every call; a float stored into a
      float array is not, so a per-request reader
      ([Dcache_sim.Auditor]) allocates nothing for it.
      @raise Invalid_argument if [k] is outside [cells]. *)

  val n : t -> int
  (** Requests fed so far. *)

  val transfers_so_far : t -> int

  val finish : ?horizon:float -> t -> run
  (** Closes every live copy at [horizon] (default: the last request's
      time) and returns the completed run.  The state is consumed:
      any later {!feed}/{!finish} raises.  The run's [serves] is
      empty ([[||]]), as its [events] and [segments] are unless
      [record_events]: with [record_events] each request's serve kind
      is in its [Served] event.
      @raise Invalid_argument if already finished or [horizon] precedes
      the last request. *)
end

val run :
  ?epoch_size:int ->
  ?record_events:bool ->
  ?window:float ->
  ?window_policy:(server:int -> time:float -> float) ->
  Cost_model.t ->
  Sequence.t ->
  run
(** Simulates SC over the whole sequence.  [O((n + m) log n)] time;
    constant work per request apart from the expiry queue, matching
    the paper's efficiency claim.  [serves] is sized for the whole
    sequence up front and each request's serve is written into it as
    the request is fed: the run allocates one word per request for
    it, and nothing else per request.

    @param epoch_size number of transfers per epoch (default: no
    epoching).
    @param record_events keep the event log and the copy
    [segments] (default [false]: both lists stay empty and the
    request loop allocates nothing; recording costs memory on long
    runs).  {!schedule_of_run} and [Double_transfer.of_run] need the
    segments.
    @param window overrides the speculative window (default
    [lambda / mu], the paper's choice; other values are for the
    ablation of experiment E10 — the 3-competitive guarantee only
    holds for the default).
    @param window_policy per-refresh window: called each time a copy
    is used or sourced, with the server and the current time.  This is
    the hook {!Online_predictive} builds on; takes precedence over
    [window].  The last-copy extension quantum stays at the base
    window either way (it only affects liveness bookkeeping, never
    cost).
    @raise Invalid_argument if [epoch_size < 1], if [window] is not
    positive, or if [window_policy] returns a non-positive window. *)

val schedule_of_run : Sequence.t -> run -> Schedule.t
(** Renders an SC run as an explicit schedule — each copy lifetime
    becomes a cache interval, each transfer-serve a transfer — so the
    online algorithm's output can be checked by
    {!Schedule.validate} and priced by {!Schedule.cost} exactly like
    an offline schedule.
    @raise Invalid_argument if the run kept no segments (it was not
    made with [~record_events:true]). *)

val competitive_bound : float
(** The proven worst-case ratio: [3.0]. *)
