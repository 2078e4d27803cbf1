(** Prometheus text-format (0.0.4) exposition for the {!Obs}
    registry, plus a tiny single-threaded [Unix]-socket HTTP
    [/metrics] endpoint — no third-party dependencies.

    Rendering is a pure function of the registry, walked in name order
    ({!Obs.walk}), so two processes with identical metric state emit
    byte-identical expositions: counters as [_total] counters, gauges
    as gauges, and span-duration histograms as summaries with
    p50/p90/p99/p999 [quantile] labels in seconds, under the names
    {!Obs.exported_name} gives.

    Labeled children (registry names encoded as [base{k="v"}] by
    {!Obs}'s metric vectors) render as labeled samples of the [base]
    family — type suffixes before the label block, the family's
    [# HELP]/[# TYPE] emitted once, children in the deterministic
    name order of the walk.

    The server is deliberately synchronous: {!poll} accepts and
    answers every pending connection on the caller's thread, so a
    long-run driver can interleave serving with its batch loop and
    lint R1 never sees a background thread or ambient clock. *)

val exposition : unit -> string
(** The full registry as Prometheus 0.0.4 text.  Deterministic given
    deterministic metric state (span summaries use the exact int
    counts/sums of {!Histo_log}).  The text around each value is built
    the first time a metric is rendered and kept, and every scrape
    writes into one reused buffer, so a warm scrape allocates the
    returned string, a box and a string per float value, and little
    else.  Safe to call from any domain: scrapes are serialised. *)

val validate : string -> (int, string) result
(** Golden parser for the 0.0.4 text format: checks comment lines
    ([# HELP] / [# TYPE] with a known type), metric-name charset,
    label syntax (a label value escapes only backslash, double quote
    and newline) and float-parseable sample values; additionally
    rejects a duplicate label name within one sample's label set,
    inconsistent label-name sets across the samples of one literal
    metric name (family consistency), a second [# TYPE] or [# HELP]
    line for one name, a [# TYPE] or [# HELP] line after a sample of
    its family (the name itself, or a summary's [_sum]/[_count]), and
    a repeated series: one name with the same label pairs twice,
    whatever their order or spelling ([x 1] and [x{} 2] included).
    Returns the number of sample lines, or [Error] naming the first
    bad line — used by the exposition tests and [make metrics-demo]. *)

(** {1 HTTP endpoint} *)

type server

val listen : ?host:string -> port:int -> unit -> server
(** Bind and listen on [host:port] (default host [127.0.0.1]; port
    [0] picks an ephemeral port — read it back with {!port}).  The
    listening socket is non-blocking; serve with {!poll}. *)

val port : server -> int
(** The bound port (useful after [~port:0]). *)

val poll : server -> int
(** Accept and answer every connection currently pending: [GET
    /metrics] gets the {!exposition}, anything else a 404.  Returns
    the number of requests served; never blocks. *)

val close : server -> unit
