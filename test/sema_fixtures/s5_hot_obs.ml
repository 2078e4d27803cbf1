(* S5 fixture: a [@@hot] body constructing a Recording sink per call
   instead of probing the one installed at startup. *)

type recorder = { mutable events : int }
type sink = Noop | Recording of recorder

let hot_trace x =
  let s = Recording { events = 0 } in
  match s with Noop -> x | Recording r -> r.events + x
[@@hot]

(* exemption: the same construction outside a hot binding is the
   sanctioned startup pattern *)
let startup_sink () = Recording { events = 0 }

(* exemption: a constructor that happens to be called Recording on a
   type that is not a sink *)
type mode = Idle | Recording of string

let hot_mode x = match (Recording "tape" : mode) with Idle -> x | Recording _ -> x + 1 [@@hot]

(* S5 also covers the setup-cost obs entry points: binding a metrics
   endpoint per call.  This local module keys the same way as the
   Dcache_obs one. *)
module Prometheus = struct
  type server = { port : int }

  let listen ~port () = { port }
  let port s = s.port
end

let hot_listen x = x + Prometheus.port (Prometheus.listen ~port:0 ()) [@@hot]

(* exemption: the same call outside hot bindings is the sanctioned
   startup pattern *)
let startup_endpoint () = Prometheus.listen ~port:7777 ()

(* S5 also covers the streaming competitive-ratio auditor: a fresh
   Audit state per hot call rebuilds the witness ring and per-stream
   telemetry on the request path. *)
module Audit = struct
  type t = { mutable seen : int }

  let create () = { seen = 0 }
  let observe t = t.seen <- t.seen + 1
end

let hot_audit x =
  let a = Audit.create () in
  Audit.observe a;
  x + a.Audit.seen
[@@hot]

(* exemption: creating the auditor with the stream, outside hot code *)
let startup_audit () = Audit.create ()

(* S5 also covers labeled-child resolution: [counter_with_label] is a
   lock-and-hash interning step, so a hot body re-resolving per call
   pays the lookup the vec API exists to hoist. *)
module Obs = struct
  type counter = int ref
  type counter_vec = { mutable children : counter list }

  let counter_vec () = { children = [] }

  let counter_with_label v _label =
    let c = ref 0 in
    v.children <- c :: v.children;
    c

  let incr c = Stdlib.incr c
end

let family = Obs.counter_vec ()

let hot_resolve x =
  let c = Obs.counter_with_label family "item" in
  Obs.incr c;
  x + !c
[@@hot]

(* exemption: resolving once outside hot code and bumping the plain
   cell in the hot body is the sanctioned loop-entry pattern *)
let resolved = Obs.counter_with_label family "item"
let hot_bump x = Obs.incr resolved; x + !resolved [@@hot]
