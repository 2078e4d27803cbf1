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

(* The parser works on [lo, hi) byte ranges of the text, so a line
   costs no substring, list or tuple.  Its input language is that of
   splitting the text on '\n', applying [String.trim] to each line and
   then to each of its two comma-separated fields, and reading the
   fields with [int_of_string] and [float_of_string]. *)

(* [String.trim]'s whitespace set *)
let is_space = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

let rec line_end text i =
  if i < String.length text && text.[i] <> '\n' then line_end text (i + 1) else i

let rec trim_start text lo hi =
  if lo < hi && is_space text.[lo] then trim_start text (lo + 1) hi else lo

let rec trim_stop text lo hi =
  if hi > lo && is_space text.[hi - 1] then trim_stop text lo (hi - 1) else hi

(* Top-level rather than local to [is_header]: a local recursive
   function would be a closure allocated on every line. *)
let rec matches_header text lo k =
  k = String.length header
  || (Char.lowercase_ascii text.[lo + k] = header.[k] && matches_header text lo (k + 1))

let is_header text lo hi = hi - lo = String.length header && matches_header text lo 0

(* A trimmed line is a request unless it is blank, a comment or the
   header. *)
let is_request text lo hi = lo < hi && text.[lo] <> '#' && not (is_header text lo hi)

let rec index_comma text lo hi =
  if lo >= hi then -1 else if text.[lo] = ',' then lo else index_comma text (lo + 1) hi

let count_requests text =
  let rec go start count =
    if start > String.length text then count
    else
      let stop = line_end text start in
      let lo = trim_start text start stop in
      let hi = trim_stop text lo stop in
      go (stop + 1) (if is_request text lo hi then count + 1 else count)
  in
  go 0 0

(* [int_of_string] and [float_of_string] read a whole string.  Instead
   of a substring per field, the field is copied into a buffer of
   exactly its length, one reused buffer per length below
   [scratch_lengths], and the buffer is lent to the conversion as a
   string: neither conversion keeps its argument. *)
let scratch_lengths = 64

let field scratch text lo hi =
  let len = hi - lo in
  if len >= scratch_lengths then String.sub text lo len
  else begin
    let buf = scratch.(len) in
    Bytes.blit_string text lo buf 0 len;
    Bytes.unsafe_to_string buf
  end

let syntax_error lineno what text lo hi =
  Error (Printf.sprintf "line %d: %s %S" lineno what (String.sub text lo (hi - lo)))

(* Fills [servers] and [times] with the request lines in order; the
   error names the first malformed line. *)
let parse_requests text servers times =
  let scratch = Array.init scratch_lengths Bytes.create in
  let rec go start lineno k =
    if start > String.length text then Ok ()
    else
      let stop = line_end text start in
      let lo = trim_start text start stop in
      let hi = trim_stop text lo stop in
      if not (is_request text lo hi) then go (stop + 1) (lineno + 1) k
      else
        let comma = index_comma text lo hi in
        if comma < 0 || index_comma text (comma + 1) hi >= 0 then
          syntax_error lineno "expected 'server,time', got" text lo hi
        else
          (* the line is trimmed, so each field has one inner end to trim *)
          let server_hi = trim_stop text lo comma in
          let time_lo = trim_start text (comma + 1) hi in
          match int_of_string (field scratch text lo server_hi) with
          | exception Failure _ -> syntax_error lineno "cannot parse" text lo hi
          | server -> (
              match float_of_string (field scratch text time_lo hi) with
              | exception Failure _ -> syntax_error lineno "cannot parse" text lo hi
              | time ->
                  servers.(k) <- server;
                  times.(k) <- time;
                  go (stop + 1) (lineno + 1) (k + 1))
  in
  go 0 1 0

(* Two passes over the text: the first counts the request lines so
   the columns are allocated at their exact size, the second parses
   into them. *)
let of_string ~m text =
  let n = count_requests text in
  let servers = Array.make n 0 and times = Array.make n 0.0 in
  match parse_requests text servers times with
  | Ok () -> Sequence.of_columns ~m ~servers ~times
  | Error _ as e -> e

let read ~filename ~m =
  match In_channel.with_open_text filename In_channel.input_all with
  | text -> Result.map_error (fun msg -> filename ^ ": " ^ msg) (of_string ~m text)
  | exception Sys_error reason ->
      (* a failed open already names the file; a failed read does not *)
      let prefix = filename ^ ": " in
      Error (if String.starts_with ~prefix reason then reason else prefix ^ reason)
