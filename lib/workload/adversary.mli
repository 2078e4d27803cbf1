open Dcache_core

(** Hand-crafted request sequences that stress the online algorithm.

    Random workloads rarely approach the competitive bound; these
    families are engineered around the speculative window
    [delta_t = lambda / mu] to maximise wasted speculation (experiment
    E7's "adversarial" rows). *)

val expiry_chaser : Cost_model.t -> m:int -> n:int -> Sequence.t
(** Round-robin over all [m] servers with inter-request gap
    [delta_t * (1 + eps)]: every copy expires just before it could
    have been useful, so SC pays a transfer plus a full wasted window
    per request. *)

val burst_train : Cost_model.t -> m:int -> n:int -> Sequence.t
(** Dense bursts touching every server almost simultaneously, then a
    silence of several windows: maximises simultaneous copies whose
    speculation is all wasted. *)

val ping_pong_far : Cost_model.t -> m:int -> n:int -> Sequence.t
(** Two servers, gap [2 * delta_t]: each revisit arrives one window
    after the local copy died — transfers forever, with the idle
    last-copy extension bridging the gaps. *)

val all : Cost_model.t -> m:int -> n:int -> (string * Sequence.t) list
(** Every family by name, with ["window-edge"] besides the three
    above: two servers alternating with gap exactly [delta_t], on the
    closed-window boundary, which exercises the tie handling of
    simultaneous source/target expirations. *)
