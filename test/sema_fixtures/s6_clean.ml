(* S6 negative: a generator that threads its randomness through an
   explicit Rng state is a deterministic function of (seed, spec) *)
module Rng = struct
  type t = { mutable s : int }

  let make seed = { s = seed }

  let next r =
    r.s <- (r.s * 25214903917) + 11;
    r.s
end

let step (r : Rng.t) = Rng.next r land 0xFFFF

let generate_requests (r : Rng.t) n = List.init n (fun _ -> step r)

(* [Sys.opaque_identity] only hides a value from the optimiser: it
   reads no ambient state *)
let generate_kept (r : Rng.t) n = List.init n (fun _ -> Sys.opaque_identity (step r))
