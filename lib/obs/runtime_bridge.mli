(** Bridge from OCaml 5's [Runtime_events] to the {!Obs} trace: GC
    phase begin/end events become [gc.<phase>] spans injected into
    the recording ring on high track ids (one lane per runtime-events
    ring domain), so GC pauses show up interleaved with [push] /
    [solve] spans in the Perfetto export.

    Wall-clock only, by contract: runtime-events timestamps come from
    the OS monotonic clock, so the bridge is only meaningful against
    a recorder created with {!Clock.monotonic} and must never be
    started in deterministic modes (tick clocks, width-independence
    tests, committed baselines).  Call sites gate it behind the same
    flags that pick the monotonic clock ([--trace] in the drivers).

    Timebase: at {!install} the bridge drains the events already in the
    runtime ring (forcing one minor collection so the ring is not
    empty) and aligns the newest runtime timestamp with
    {!Obs.now_ns}; later events are injected with that fixed offset
    applied. *)

type t
(** Injected GC spans use track [256 + ring domain id], far above any
    task track a {!Obs.Parallel} job can use. *)

val poll : t -> int
(** Drain pending runtime events into the trace; returns the number
    of events consumed.  Call periodically (per batch / per bench
    case) so the runtime ring cannot overflow, and once more before
    the trace is written. *)

val stop : t -> unit
(** Free the cursor and pause event collection.  The [t] must not be
    polled afterwards. *)

val install : unit -> t option
(** When a recording sink is installed: start runtime events
    collection ([Runtime_events.start]), open a self-cursor, calibrate
    the timebase offset and register an exit-time {!poll}.  Call it
    {e after} [Obs.enable_file_trace] so the LIFO [at_exit] chain
    polls the bridge before the trace file is written.  [None] (and
    no bridge) under [Noop]. *)
