open Dcache_core

(* The header line, written by [output] and skipped by the parser in
   any letter case *)
let header = "server,time"

(* one request per line; [%.17g] reads back bit for bit *)
let line : (int -> float -> unit, 'b, unit) format = "%d,%.17g\n"

let output oc seq =
  output_string oc header;
  output_char oc '\n';
  for i = 1 to Sequence.n seq do
    Printf.fprintf oc line (Sequence.server seq i) (Sequence.time seq i)
  done

let to_string seq =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf header;
  Buffer.add_char buf '\n';
  for i = 1 to Sequence.n seq do
    Printf.bprintf buf line (Sequence.server seq i) (Sequence.time seq i)
  done;
  Buffer.contents buf

let write ~filename seq = Out_channel.with_open_text filename (fun oc -> output oc seq)

(* The parser works on [lo, hi) byte ranges of a window onto the
   text, so a line costs no substring, list or tuple.  Its input
   language is that of splitting the text on '\n', applying
   [String.trim] to each line and then to each of its two
   comma-separated fields, and reading the fields with [int_of_string]
   and [float_of_string]. *)

(* [String.trim]'s whitespace set *)
let is_space = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

(* The first '\n' of [buf] at or after [i] and before [len], or [len]:
   an int, where [Bytes.index_from_opt] would allocate an option per
   line *)
let rec line_end buf i len =
  if i < len && Bytes.get buf i <> '\n' then line_end buf (i + 1) len else i

let rec trim_start buf lo hi =
  if lo < hi && is_space (Bytes.get buf lo) then trim_start buf (lo + 1) hi else lo

let rec trim_stop buf lo hi =
  if hi > lo && is_space (Bytes.get buf (hi - 1)) then trim_stop buf lo (hi - 1) else hi

(* Top-level rather than local to [is_header]: a local recursive
   function would be a closure allocated on every line. *)
let rec matches_header buf lo k =
  k = String.length header
  || (Char.lowercase_ascii (Bytes.get buf (lo + k)) = header.[k] && matches_header buf lo (k + 1))

let is_header buf lo hi = hi - lo = String.length header && matches_header buf lo 0

(* A trimmed line is a request unless it is blank, a comment or the
   header. *)
let is_request buf lo hi = lo < hi && Bytes.get buf lo <> '#' && not (is_header buf lo hi)

let rec index_comma buf lo hi =
  if lo >= hi then -1 else if Bytes.get buf lo = ',' then lo else index_comma buf (lo + 1) hi

(* [int_of_string] and [float_of_string] read a whole string.  Instead
   of a substring per field, the field is copied into a buffer of
   exactly its length, one reused buffer per length below
   [scratch_lengths], and the buffer is lent to the conversion as a
   string: neither conversion keeps its argument. *)
let scratch_lengths = 64

let field scratch buf lo hi =
  let len = hi - lo in
  if len >= scratch_lengths then Bytes.sub_string buf lo len
  else begin
    let b = scratch.(len) in
    Bytes.blit buf lo b 0 len;
    Bytes.unsafe_to_string b
  end

(* -- the time reader -------------------------------------------------

   [decimal] reads a time field straight into its column, with the
   value [float_of_string] gives it, so a field in its domain boxes no
   float: a float returned from a function would be boxed.  The domain
   is [[+-]digits[.digits][(e|E)[+-]digits]] with at least one digit
   before the exponent and one after [e], at most 18 significant
   digits (leading zeros do not count), so the digits read as an int
   w < 10^18 < 2^60, and a decimal exponent q, taken after moving the
   point behind the last digit, in [-22, 22], so 10^|q| is an exact
   double.  It covers every time from 1e-6 to 1e17 that [output]'s
   [%.17g] writes; any other text (hex, [_], [nan], [inf], more
   digits, a wider exponent) goes to [float_of_string].

   The value is Clinger's fast path ("How to Read Floating Point
   Numbers Accurately", PLDI 1990) made exact.  For q >= 0 it is the
   int w * 10^q when that is below 2^60, else w *. 10^q when w < 2^53:
   two exact operands, so one rounding.  For q < 0 the quotient
   r = x /. p of x = float w and p = 10^-q can be an ulp off, because
   x is w rounded.  The residual R = w - r p is exactly fma (-r) p x
   (the remainder of a quotient within a few ulps of x / p is a
   double) plus the integer w - x, held as a two-sum pair (s, e); r
   steps to a neighbour while R lies beyond half the gap to it, times
   p, and at exactly half keeps the even mantissa. *)

let max_significant = 18

let max_exponent = 22

(* a parsed exponent stops growing here, so it never overflows; such
   a field is outside the domain *)
let exponent_cap = 100_000

(* 10^k as an exact double, k = 0 .. 22 *)
let exact_pow10 =
  [|
    1e0; 1e1; 1e2; 1e3; 1e4; 1e5; 1e6; 1e7; 1e8; 1e9; 1e10; 1e11;
    1e12; 1e13; 1e14; 1e15; 1e16; 1e17; 1e18; 1e19; 1e20; 1e21; 1e22;
  |]

(* 10^k as an int, k = 0 .. 18 *)
let int_pow10 =
  let a = Array.make (max_significant + 1) 1 in
  for k = 1 to max_significant do
    a.(k) <- 10 * a.(k - 1)
  done;
  a

(* the largest w with w * 10^q < 2^60 *)
let int_limit = Array.map (fun p -> ((1 lsl 60) - 1) / p) int_pow10

let is_digit c = c >= '0' && c <= '9'

let[@inline] odd x = Int64.to_int (Int64.bits_of_float x) land 1 = 1

(* inlined, so [v] is not boxed *)
let[@inline] store times k negative v =
  times.(k) <- (if negative then -.v else v);
  true

(* Reads the field [lo, hi) of [buf] into [times.(k)] and returns true
   when it is in the domain; otherwise writes nothing and returns
   false.  The parse state lives in local refs and the correction in
   a while loop: a recursive function would box its float arguments. *)
let decimal buf lo hi times k =
  let i = ref lo in
  let negative = lo < hi && Bytes.get buf lo = '-' in
  if lo < hi && (negative || Bytes.get buf lo = '+') then incr i;
  (* the mantissa: [w] holds its first 18 significant digits, [point]
     the number of digits before the point *)
  let w = ref 0 and significant = ref 0 and digits = ref 0 and point = ref (-1) in
  while
    !i < hi
    &&
    let c = Bytes.get buf !i in
    is_digit c || (c = '.' && !point < 0)
  do
    let c = Bytes.get buf !i in
    if c = '.' then point := !digits
    else begin
      incr digits;
      if !significant > 0 || c <> '0' then begin
        incr significant;
        if !significant <= max_significant then w := (10 * !w) + (Char.code c - Char.code '0')
      end
    end;
    incr i
  done;
  let exponent = ref 0 and exponent_read = ref true in
  if !i < hi && (Bytes.get buf !i = 'e' || Bytes.get buf !i = 'E') then begin
    incr i;
    let exponent_negative = !i < hi && Bytes.get buf !i = '-' in
    if !i < hi && (exponent_negative || Bytes.get buf !i = '+') then incr i;
    let first = !i in
    while !i < hi && is_digit (Bytes.get buf !i) do
      if !exponent < exponent_cap then
        exponent := (10 * !exponent) + (Char.code (Bytes.get buf !i) - Char.code '0');
      incr i
    done;
    exponent_read := !i > first;
    if exponent_negative then exponent := - !exponent
  end;
  let q = !exponent - if !point < 0 then 0 else !digits - !point in
  let w = !w in
  if
    !i < hi
    || !digits = 0
    || not !exponent_read
    || !significant > max_significant
    || abs !exponent >= exponent_cap
    || q < -max_exponent
    || q > max_exponent
  then false
  else if w = 0 then store times k negative 0.0
  else if q >= 0 then
    if q <= max_significant && w <= int_limit.(q) then
      store times k negative (float_of_int (w * int_pow10.(q)))
    else if w < 1 lsl 53 then store times k negative (float_of_int w *. exact_pow10.(q))
    else false
  else begin
    let p = exact_pow10.(-q) and x = float_of_int w in
    let delta = float_of_int (w - int_of_float x) in
    let r = ref (x /. p) and settled = ref false in
    while not !settled do
      let c = !r in
      (* R = w - c p = rho + delta exactly, as s + e *)
      let rho = Float.fma (-.c) p x in
      let s = rho +. delta in
      let b = s -. rho in
      let e = rho -. (s -. b) +. (delta -. b) in
      let up = Float.next_after c infinity and down = Float.next_after c neg_infinity in
      let half_up = (up -. c) *. p *. 0.5 and half_down = (c -. down) *. p *. 0.5 in
      (* past half the gap the neighbour is nearer; at exactly half the
         even mantissa wins *)
      (* dcache-sema: allow R2 — s + e is R exactly and half the gap is a double, so the tie test is exact *)
      let to_up = s > half_up || (s = half_up && (e > 0.0 || (e = 0.0 && odd c))) in
      (* dcache-sema: allow R2 — the same exact tie test toward the lower neighbour *)
      let to_down = s < -.half_down || (s = -.half_down && (e < 0.0 || (e = 0.0 && odd c))) in
      if to_up then r := up else if to_down then r := down else settled := true
    done;
    store times k negative !r
  end

(* A malformed line, or a file whose request lines changed between
   the two passes *)
exception Malformed of string

let changed = "changed while it was read"

let syntax_error lineno what buf lo hi =
  let line = Bytes.sub_string buf lo (hi - lo) in
  raise (Malformed (Printf.sprintf "line %d: %s %S" lineno what line))

(* One pass over a text, seen through [window]: its bytes [0, len)
   hold the text from the current line on.  While [source] is
   [Some ic], the text goes on in [ic] and [refill] reads it; [None]
   means the window holds the rest of the text.  A counting pass only
   counts the request lines; a parsing pass stores them in [servers]
   and [times], which it never writes past. *)
type pass = {
  mutable source : In_channel.t option;
  mutable window : Bytes.t;
  mutable len : int;
  counting : bool;
  servers : int array;
  times : float array;
  scratch : Bytes.t array;
}

(* Moves the unfinished line [start, len) to the front of the window,
   doubling the window when that line fills it, and reads more of the
   text behind it.  Returns the line's length: no '\n' lies before it. *)
let refill p ic start =
  let rest = p.len - start in
  if rest = Bytes.length p.window then begin
    let wider = Bytes.create (2 * rest) in
    Bytes.blit p.window 0 wider 0 rest;
    p.window <- wider
  end
  else Bytes.blit p.window start p.window 0 rest;
  let got = In_channel.input ic p.window rest (Bytes.length p.window - rest) in
  if got = 0 then p.source <- None;
  p.len <- rest + got;
  rest

(* The lines from the one starting at [start], numbered from [lineno],
   with [k] request lines before them; the search for the line's end
   resumes at [from].  Returns the number of request lines.  The
   per-line state lives in the arguments, and every call is a tail
   call, so a line allocates nothing unless its time is outside
   [decimal]'s domain: then [float_of_string] boxes it. *)
let rec scan p start from lineno k =
  let stop = line_end p.window from p.len in
  match p.source with
  | Some ic when stop = p.len -> scan p 0 (refill p ic start) lineno k
  | _ ->
      let lo = trim_start p.window start stop in
      let hi = trim_stop p.window lo stop in
      if not (is_request p.window lo hi) then next p stop lineno k
      else if p.counting then next p stop lineno (k + 1)
      else parse_line p lo hi stop lineno k

(* Past the line that ends at [stop]: the segment after the last '\n'
   is the text's last line. *)
and next p stop lineno k = if stop = p.len then k else scan p (stop + 1) (stop + 1) (lineno + 1) k

and parse_line p lo hi stop lineno k =
  let w = p.window in
  let comma = index_comma w lo hi in
  if comma < 0 || index_comma w (comma + 1) hi >= 0 then
    syntax_error lineno "expected 'server,time', got" w lo hi
  else
    (* the line is trimmed, so each field has one inner end to trim *)
    let server_hi = trim_stop w lo comma in
    let time_lo = trim_start w (comma + 1) hi in
    match int_of_string (field p.scratch w lo server_hi) with
    | exception Failure _ -> syntax_error lineno "cannot parse" w lo hi
    | server ->
        if k < Array.length p.times && decimal w time_lo hi p.times k then begin
          p.servers.(k) <- server;
          next p stop lineno (k + 1)
        end
        else (
          match float_of_string (field p.scratch w time_lo hi) with
          | exception Failure _ -> syntax_error lineno "cannot parse" w lo hi
          | time ->
              if k = Array.length p.servers then raise (Malformed changed);
              p.servers.(k) <- server;
              p.times.(k) <- time;
              next p stop lineno (k + 1))

(* The counting pass over a text whose first [len] bytes are in
   [window] *)
let counting_pass source window len =
  { source; window; len; counting = true; servers = [||]; times = [||]; scratch = [||] }

(* Two passes over the text of the counting pass [p]: the first counts
   the request lines so the columns are allocated at their exact size,
   then [rewind p] goes back to the text's start and the second parses
   into them, through the same window.  The error names the first
   malformed line. *)
let columns ~m p ~rewind =
  match
    let n = scan p 0 0 1 0 in
    rewind p;
    let parse =
      {
        p with
        counting = false;
        servers = Array.make n 0;
        times = Array.make n 0.0;
        scratch = Array.init scratch_lengths Bytes.create;
      }
    in
    if scan parse 0 0 1 0 < n then raise (Malformed changed);
    parse
  with
  | parse -> Sequence.of_columns ~m ~servers:parse.servers ~times:parse.times
  | exception Malformed msg -> Error msg

(* The whole text is the window, and a pass without a source never
   writes into its window. *)
let of_string ~m text =
  columns ~m (counting_pass None (Bytes.unsafe_of_string text) (String.length text)) ~rewind:ignore

let window_bytes = 65_536

(* Both passes read [ic] from where it stands now, in one window. *)
let of_channel ~m ic =
  let pos = In_channel.pos ic in
  columns ~m (counting_pass (Some ic) (Bytes.create window_bytes) 0) ~rewind:(fun p ->
      In_channel.seek ic pos;
      p.source <- Some ic;
      p.len <- 0)

let read ~filename ~m =
  let prefix = filename ^ ": " in
  match
    In_channel.with_open_text filename (fun ic ->
        match In_channel.length ic with
        | (_ : int64) -> of_channel ~m ic
        | exception Sys_error _ ->
            (* a pipe cannot seek back for a second pass: read it whole *)
            of_string ~m (In_channel.input_all ic))
  with
  | result -> Result.map_error (fun msg -> prefix ^ msg) result
  | exception Sys_error reason ->
      (* a failed open already names the file; a failed read does not *)
      Error (if String.starts_with ~prefix reason then reason else prefix ^ reason)
