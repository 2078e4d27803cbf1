(* Clock and allocation readings for the ledger. *)

(* Nanoseconds from CLOCK_MONOTONIC.  [Monotonic_clock.now] is
   [@@noalloc] and returns an unboxed int64, so a reading allocates
   nothing. *)
let now () = Int64.to_int (Monotonic_clock.now ())

(* Every word allocated so far: minor + major - promoted.  The minor
   part comes from [Gc.minor_words]: OCaml 5.1's [Gc.counters] scales
   the not-yet-collected part of the minor heap by 1/8, so its minor
   field undercounts. *)
let words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

(* What one [words] reading allocates itself; subtracted from every
   difference of two readings. *)
let probe_words =
  let a = words () in
  let b = words () in
  b -. a
