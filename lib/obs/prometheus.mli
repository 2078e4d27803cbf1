(** Prometheus text-format (0.0.4) exposition for the {!Obs}
    registry, plus a tiny single-threaded [Unix]-socket HTTP
    [/metrics] endpoint — no third-party dependencies.

    Rendering is a pure function of the registry readbacks (which are
    name-sorted), so two processes with identical metric state emit
    byte-identical expositions: counters as [_total] counters, gauges
    as gauges, and span-duration histograms as summaries with
    p50/p90/p99/p999 [quantile] labels in seconds.

    Labeled children (registry names encoded as [base{k="v"}] by
    {!Obs}'s metric vectors) render as labeled samples of the [base]
    family — type suffixes before the label block, the family's
    [# HELP]/[# TYPE] emitted once, children in the deterministic
    name-sorted order the readbacks provide.

    The server is deliberately synchronous: {!poll} accepts and
    answers every pending connection on the caller's thread, so a
    long-run driver can interleave serving with its batch loop and
    lint R1 never sees a background thread or ambient clock. *)

val metric_name : string -> string
(** Sanitize a registry name into the Prometheus charset
    ([[a-zA-Z0-9_:]]; everything else becomes ['_']).  The renderer
    also prefixes [dcache_]. *)

val escape_label : string -> string
(** Escape a label value per the 0.0.4 spec: backslash, double quote
    and newline. *)

val escape_help : string -> string
(** Escape a [# HELP] text: backslash and newline. *)

val quantile_probes : float array
(** The summary probes rendered for every span: p50, p90, p99, p999. *)

val exposition : unit -> string
(** The full registry as Prometheus 0.0.4 text.  Deterministic given
    deterministic metric state (span summaries use the exact int
    counts/sums of {!Histo_log}). *)

val content_type : string
(** The exposition content type, [text/plain; version=0.0.4]. *)

val validate : string -> (int, string) result
(** Golden parser for the 0.0.4 text format: checks comment lines
    ([# HELP] / [# TYPE] with a known type), metric-name charset,
    label syntax and float-parseable sample values; additionally
    rejects a duplicate label name within one sample's label set and
    inconsistent label-name sets across the samples of one literal
    metric name (family consistency).  Returns the number of sample
    lines, or [Error] naming the first bad line — used by the
    exposition tests and [make metrics-demo]. *)

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
