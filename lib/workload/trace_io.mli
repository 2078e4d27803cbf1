open Dcache_core

(** CSV trace import/export.

    Format: one request per line, [server,time].  Lines are split on
    ['\n']; each line and each of its two fields is trimmed of
    [String.trim]'s whitespace (so CRLF files read as well).  Blank
    lines, lines starting with [#] and [server,time] header lines (in
    any letter case) are skipped.  The fields are read with
    [int_of_string] and [float_of_string]; a plain decimal time (at
    most 18 significant digits, a decimal exponent within 22) is read
    by the parser itself, exactly, to the value [float_of_string]
    gives it.  Times must be finite, strictly increasing and positive;
    servers are 0-based and below [m].  Lets users replay real service
    logs through every algorithm in the repository. *)

val output : out_channel -> Sequence.t -> unit
(** [output oc seq] writes the trace to [oc]: a [server,time] header,
    then one [server,time] line per request with the time printed
    as [%.17g], so it reads back bit for bit.  Each line goes to the
    channel as it is formatted; the whole text is never built. *)

val write : filename:string -> Sequence.t -> unit
(** {!output} to a new file [filename]. *)

(* dcache-sema: allow S3 — seed case "trace_io: write/read roundtrip preserves the instance" *)
val to_string : Sequence.t -> string
(** The bytes {!output} writes. *)

val read : filename:string -> m:int -> (Sequence.t, string) result
(** [read ~filename ~m] parses the trace in the file as {!of_string}
    parses a string, in two passes through one reused 64 KB window:
    the first counts the request lines, then the file is read again
    from where it stood and parsed into columns of exactly that size.
    The file's text is never held whole; a line longer than the window
    doubles it.  A file that cannot seek back, such as a pipe on
    [/dev/stdin], is read whole and parsed by {!of_string}.  A file
    whose request lines change between the two passes is an error.
    Every error, including one from opening or reading the file,
    starts with [filename].  [m] must cover every server index in the
    file. *)

(* dcache-sema: allow S3 — seed cases "trace_io: comments and headers", "rejects malformed input" *)
val of_string : m:int -> string -> (Sequence.t, string) result
(** Parses a trace in two passes over the text: one counts the
    request lines, the other reads them into columns of that size for
    {!Sequence.of_columns}.  A line allocates nothing, unless its time
    is outside the plain decimals the parser reads itself: then
    [float_of_string]'s result is boxed.  A syntax error names its
    1-based line.
    Never raises. *)
