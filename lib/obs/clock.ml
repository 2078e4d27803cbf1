(* Injected time sources for the observability layer.  A clock is
   just [unit -> int] nanoseconds; the recorder never reads ambient
   time itself, so swapping the clock swaps every timestamp in a
   trace without touching any probe site.  [ticks] makes trace
   timestamps a deterministic function of record order, which is what
   the reproducibility tests run under. *)

type t = unit -> int

let of_fn f = f

let now t = t ()

(* Wall-derived monotonic nanoseconds, origin at clock creation.
   [Unix.gettimeofday] is the only ambient read and it happens inside
   the recording sink exclusively — the algorithms themselves stay
   deterministic (lint R1 does not even see this module: no Random,
   no Hashtbl traversal). *)
let monotonic () =
  let t0 = Unix.gettimeofday () in
  fun () ->
    let dt = Unix.gettimeofday () -. t0 in
    int_of_float (dt *. 1e9)

(* Virtual tick clock: every read returns the next integer, counted
   *per domain*.  Within one domain the timestamp stream is a pure
   function of that domain's record sequence, so a span's tick
   duration (end read minus begin read) counts exactly the clock
   reads its own body performed — concurrent reads from other pool
   domains do not leak in.  That is what makes span-duration
   histograms, and every quantile read back from them, byte-identical
   at any pool width (test_audit's width-1-vs-4 readback test).
   Cross-domain tick values still depend on chunk placement, so the
   trace-structure tests keep comparing structure, not timestamps. *)
let ticks () =
  let key = Domain.DLS.new_key (fun () -> ref (-1)) in
  fun () ->
    let c = Domain.DLS.get key in
    incr c;
    !c
