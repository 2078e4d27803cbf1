(* The batch solver is a thin wrapper over the streaming solver —
   recurrences and reconstruction live in Streaming_dp. *)

module Obs = Dcache_obs.Obs

let sp_solve = Obs.span_name "offline_dp.solve"
let sp_fill = Obs.span_name "offline_dp.fill"
let sp_reconstruct = Obs.span_name "offline_dp.reconstruct"

type t = { stream : Streaming_dp.t; n : int }

let solve model seq =
  Obs.spanned sp_solve @@ fun () ->
  let stream = Obs.spanned sp_fill (fun () -> Streaming_dp.of_sequence model seq) in
  { stream; n = Sequence.n seq }

let cost r = Streaming_dp.cost r.stream

let c r = Streaming_dp.costs r.stream
let d r = Array.init (r.n + 1) (fun i -> Streaming_dp.semi_cost_at r.stream i)
let marginal_bounds r = Array.init (r.n + 1) (fun i -> Streaming_dp.marginal_at r.stream i)
let running_bounds r = Array.init (r.n + 1) (fun i -> Streaming_dp.running_at r.stream i)

let pivot_of r i = Streaming_dp.pivot_at r.stream i

let schedule r = Obs.spanned sp_reconstruct (fun () -> Streaming_dp.schedule r.stream)
