(** Zero-overhead observability: typed metrics, span tracing, and
    pluggable sinks.

    Every probe is gated on one mutable-field read ({!probe}) and
    allocates nothing on either side of the branch: counters are
    [Atomic.t] cells created once at registration, gauges live in a
    flat float array, and span events are three stores into
    preallocated ring columns.  With the default {!Noop} sink an
    instrumented [[@@hot]] path keeps its allocation budget
    bit-for-bit; a tier-1 test holds a disabled probe to 0 words and
    [bench/perf_gate.exe] holds probes under 2% of a push.

    Determinism: counters are commutative atomic sums and span events
    from {!Parallel} jobs are merged positionally by task index, so
    counter totals and trace {e structure} are identical at any
    domain count.  Timestamps come from the injected {!Clock} — real
    monotonic nanoseconds for humans, a virtual tick clock under
    test.  See [docs/OBSERVABILITY.md]. *)

(** {1 Metric registration}

    Register in a top-level [let] of the instrumented module (ids are
    cheap ints; re-registering a name returns the existing id), then
    probe through the id on the hot path. *)

type counter = private int
(** Monotonic event count, one atomic cell.  Ids of each kind number
    the registry from 0, so a reader can key per-metric state on
    them. *)

type gauge = private int
(** Last-written float value; every {!set_gauge} also records a
    sample event on the current trace track. *)

type span = private int
(** Interned span name, for an allocation-free {!spanned} at hot call
    sites.  Every span owns a log-scale
    duration histogram ({!Histo_log}) fed by {!spanned},
    {!Parallel.task} and {!observe_span_ns} — the one distribution
    type: quantile telemetry rides the spans that already exist. *)

val counter : string -> counter
val gauge : string -> gauge

val span_name : string -> span
(** All registration functions validate names at [let]-time against
    the grammar the Prometheus renderer and {!Prometheus.validate}
    accept: names match [[a-zA-Z_:][a-zA-Z0-9_:.]*] ('.' is
    namespacing, mapped to '_' at export; '{' is reserved for labeled
    children), label names match [[a-zA-Z_][a-zA-Z0-9_]*].

    They also keep two names from rendering one Prometheus family or
    series ({!exported_name}): a name is refused when one of its
    sample names is already another name's.  That happens for two
    names of one kind that differ only in '.' against '_', a gauge
    against a counter's [_total] name, and a gauge or counter against
    a span's [_duration_seconds], [_sum] or [_count] names.  One base
    name stays legal across kinds whose suffixes keep them apart:
    [streaming_dp.push] is a counter and a span.
    @raise Invalid_argument on a bad metric or label name, or on a
    name whose sample names collide with another name's; the message
    names both. *)

type export_kind = Counter | Gauge | Summary

val exported_name : export_kind -> string -> string
(** The family name a registry name (a labeled family's base name)
    renders under: [dcache_], the name with every character outside
    [[a-zA-Z0-9_:]] mapped to ['_'], and [_total] for a counter or
    [_duration_seconds] for a span's summary.  A summary's lines also
    carry the [_sum] and [_count] series.  The one rule {!Prometheus}
    renders with and registration checks collisions with. *)

(** {1 Labeled families}

    A metric vector is a family of plain cells keyed by one label
    ([item], [policy], [rank], ...).  Resolve a child {e once}, off
    the hot path — at registration, stream setup, or loop entry — and
    bump the returned plain id in the loop: the bump is the same
    single probe-gated atomic op as any flat metric, so the 0-word
    Noop contract is unchanged (sema rule S5 flags [*_with_label]
    calls inside [[@@hot]] bodies).

    Cardinality is bounded per family: past [max_children] (default
    64) every new label value collapses into a reserved ["other"]
    child and bumps the [obs.label_overflow] counter — a family
    registered with [max_children:k] never owns more than [k + 1]
    children.  Children export through {!Prometheus} as [base{k="v"}]
    in deterministic sorted order and appear under their encoded
    names in {!walk}. *)

type counter_vec
type gauge_vec

val counter_vec : ?max_children:int -> string -> labels:string list -> counter_vec
(** Register (or intern) a counter family keyed by the one label in
    [labels].  Re-registering with the same name, kind and label
    returns the same family — child ids stay stable.
    @raise Invalid_argument on a bad name or label, [max_children <
    1], a label list that does not hold exactly one label, a
    mismatched re-registration, or a name already registered as a
    plain counter. *)

val gauge_vec : ?max_children:int -> string -> labels:string list -> gauge_vec

val counter_with_label : counter_vec -> string -> counter
(** Resolve the child for one label value ([O(1)] via a
    hash-interning table, stable across calls and re-registration).
    The value may be any string — it is escaped at encoding time.
    Registration-path work: never call on a hot path. *)

val gauge_with_label : gauge_vec -> string -> gauge

(** {1 Sinks} *)

type recorder
(** A recording context: an injected clock plus a preallocated event
    ring.  When the ring fills, the oldest events are overwritten
    (the recent window is the one triage needs) and the loss is
    reported in the exported trace ([otherData.eventsLost]).  The ring
    keeps three words per event (a key packing the event's kind, name
    and track, its timestamp and its value): 6 MiB at the default
    capacity. *)

type sink = Noop | Recording of recorder

val recorder : ?clock:Clock.t -> ?capacity:int -> unit -> recorder
(** Fresh recorder; [clock] defaults to {!Clock.monotonic}, [capacity]
    (events) to [2^18].  It allocates [3 * capacity] words of ring and
    a few dozen more.
    @raise Invalid_argument if [capacity < 16]. *)

val set_sink : sink -> unit
(** Install a sink process-wide.  [Noop] (the initial state) turns
    every probe into a constant-false branch; [Recording r] routes
    span events of the calling domain to [r]'s main ring and enables
    all probes. *)

val sink : unit -> sink
(** The currently installed sink. *)

val probe : unit -> bool
(** One mutable-field read: [true] iff a recording sink is installed.
    Hot paths hoist a single [if Obs.probe () then ...] around their
    per-call probe block so the disabled cost is one load+branch. *)

(** {1 Probes}

    All are no-ops (no allocation, no stores) under {!Noop}. *)

val incr : counter -> unit
val add : counter -> int -> unit
val set_gauge : gauge -> float -> unit

val set_gauge_cell : gauge -> float array -> int -> unit
(** [set_gauge_cell g cells k] is [set_gauge g cells.(k)], reading the
    value in place.  Under [-opaque] (dune's dev profile) a caller in
    another module boxes every float it passes to {!set_gauge}, 2
    words while recording; a caller that keeps the value in a float
    array allocates nothing for it ({!Audit} does).
    @raise Invalid_argument if [k] is outside [cells] and a recording
    sink is installed. *)

val spanned : span -> (unit -> 'a) -> 'a
(** [spanned sp f] runs [f] inside span [sp]: exception-safe, and
    calls [f] directly (no event, no allocation) when disabled.
    While recording, exactly two clock reads bracket [f] — they stamp
    the begin/end events and their delta lands in the span's duration
    histogram, so under the per-domain tick clock histogram contents
    are width-independent. *)

val now_ns : unit -> int
(** The current domain's recording clock (the task buffer's inside a
    {!Parallel} job, the recorder's otherwise); [0] under {!Noop}.
    For hand-rolled span timing on paths where {!spanned}'s closure
    is too expensive — pair with {!observe_span_ns}. *)

val observe_span_ns : span -> int -> unit
(** Record a measured duration (ns, or ticks under test) straight
    into the span's histogram, without emitting trace events.  No-op
    under {!Noop}. *)

(** {1 Readback} *)

val counter_value : counter -> int

val span_histo : span -> Histo_log.t
(** The span's duration histogram (live handle, not a snapshot). *)

val walk :
  counter:(counter -> string -> int -> unit) ->
  gauge:(gauge -> string -> float -> unit) ->
  span:(span -> string -> Histo_log.t -> unit) ->
  unit
(** Every registered counter, then every gauge, then every span, each
    kind in name order, with its id, its registry name (a labeled
    child's encoded [base{k="v"}] included) and its current value: the
    counter's total, the gauge's last-written value, the span's
    duration histogram (a live handle).  The name order is rebuilt
    only after a registry has grown, so a walk allocates nothing per
    metric but the box of each gauge's value.  Counter totals and
    histogram contents are commutative atomic adds: identical at any
    domain count.  Safe to call from any domain. *)

val reset : unit -> unit
(** Zero every counter, gauge and span-duration histogram and clear
    the recording ring (if any).  For tests and back-to-back runs
    sharing a process. *)

val inject_event : span -> track:int -> is_begin:bool -> ts:int -> unit
(** Append a begin/end event with a caller-supplied timestamp
    (already in the recorder's timebase) and explicit track id to the
    main ring.  The {!Runtime_bridge} lands GC phase spans here on
    high track ids; no-op without a recording sink.
    @raise Invalid_argument if [track] is negative or above [2^30 - 1],
    the largest track an event's key holds. *)

(** {1 Parallel regions}

    Used by [Pool]: each task of a job records into its own
    positional buffer (track = task index + 1), merged back into the
    main ring in task order after the join — trace structure is
    independent of domain count and chunk schedule. *)

module Parallel : sig
  type job

  val job_begin : span:span -> task_span:span -> wait_gauge:gauge -> tasks:int -> job option
  (** Open a job span on the submitting domain and preallocate one
      buffer per task.  [None] when not recording — callers keep the
      uninstrumented fast path.
      @raise Invalid_argument if [tasks] exceeds [2^30 - 1], the
      largest track an event's key holds. *)

  val task : job -> int -> (unit -> 'a) -> 'a
  (** [task j i f] runs task [i]'s body with its positional buffer
      installed, recording a queue-wait sample ([wait_gauge], ns
      since [job_begin]) on task [i]'s own track and a [task_span].
      The sample is an event only — the gauge {e cell} is never
      written, because the cross-domain wait delta is width-dependent
      under the per-domain tick clock and cells feed the
      byte-compared readbacks.  Exception-safe. *)

  val job_end : job -> unit
  (** After the join, on the submitting domain: merge task buffers
      positionally and close the job span. *)
end

(** {1 Export} *)

val write_chrome_trace : recorder -> path:string -> unit
(** Writes the trace to [path] as Chrome [trace_event] JSON
    ([chrome://tracing] / Perfetto): B/E duration events and C counter
    samples, [tid] = logical track, timestamps in microseconds from
    the recorder's clock.  Every {!set_gauge} is a C event, so the
    trace doubles as the in-process metric history; a non-finite
    sample value is written as JSON [null].  Windows truncated by ring
    overwrite are re-balanced, and [otherData.eventsLost] counts the
    events dropped by ring overwrite plus those recorded on domains
    with no installed buffer.
    @raise Sys_error if [path] cannot be written. *)

(** {1 Wiring} *)

val enable_file_trace : string -> unit
(** Open the given path for writing now, install a fresh recording
    sink (monotonic clock, default capacity) and write its Chrome
    trace to the path at process exit.  Repeated calls retarget the
    exit dump to the latest recorder/path.
    @raise Sys_error if the path cannot be opened for writing; no
    sink is installed then. *)

val install_from_env : unit -> unit
(** [enable_file_trace path] when [DCACHE_TRACE=path] is set and
    non-empty; otherwise leave the {!Noop} sink in place.
    @raise Sys_error as {!enable_file_trace}. *)
