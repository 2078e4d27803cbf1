(* Minimal JSON reading for the bench tools, and the perf gate's
   baseline file.  The repo takes no JSON library dependency, so
   [of_string] parses exactly what the tools read — BENCHMARK.json,
   Chrome traces from [Obs.write_chrome_trace] and BENCH_baseline.json:
   objects, arrays, strings, numbers, booleans and null. *)

type value =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of value list
  | Obj of (string * value) list

(* -------------------------------------------------------------- parsing *)

exception Parse_error of string

let parse_error fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some got when got = c -> advance ()
    | Some got -> parse_error "expected %C at offset %d, got %C" c !pos got
    | None -> parse_error "expected %C at offset %d, got end of input" c !pos
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else parse_error "bad literal at offset %d" !pos
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> parse_error "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some '"' -> Buffer.add_char b '"'; advance (); go ()
          | Some '\\' -> Buffer.add_char b '\\'; advance (); go ()
          | Some '/' -> Buffer.add_char b '/'; advance (); go ()
          | Some 'n' -> Buffer.add_char b '\n'; advance (); go ()
          | Some 't' -> Buffer.add_char b '\t'; advance (); go ()
          | Some 'r' -> Buffer.add_char b '\r'; advance (); go ()
          | Some 'u' ->
              advance ();
              if !pos + 4 > n then parse_error "truncated \\u escape";
              let code = int_of_string ("0x" ^ String.sub s !pos 4) in
              pos := !pos + 4;
              (* [Obs.escape_json] only writes \u for control bytes *)
              Buffer.add_char b (Char.chr (code land 0xff));
              go ()
          | _ -> parse_error "bad escape at offset %d" !pos)
      | Some c ->
          Buffer.add_char b c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let number_char c =
      match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    in
    while (match peek () with Some c -> number_char c | None -> false) do
      advance ()
    done;
    let lexeme = String.sub s start (!pos - start) in
    match float_of_string_opt lexeme with
    | Some f -> Num f
    | None -> parse_error "bad number %S at offset %d" lexeme start
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin advance (); Obj [] end
        else begin
          let fields = ref [] in
          let rec fields_loop () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            fields := (k, v) :: !fields;
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); fields_loop ()
            | Some '}' -> advance ()
            | _ -> parse_error "expected ',' or '}' at offset %d" !pos
          in
          fields_loop ();
          Obj (List.rev !fields)
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin advance (); Arr [] end
        else begin
          let items = ref [] in
          let rec items_loop () =
            let v = parse_value () in
            items := v :: !items;
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); items_loop ()
            | Some ']' -> advance ()
            | _ -> parse_error "expected ',' or ']' at offset %d" !pos
          in
          items_loop ();
          Arr (List.rev !items)
        end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
    | None -> parse_error "unexpected end of input"
  in
  match parse_value () with
  | v ->
      skip_ws ();
      if !pos <> n then Error (Printf.sprintf "trailing garbage at offset %d" !pos) else Ok v
  | exception Parse_error msg -> Error msg
  | exception _ -> Error "malformed JSON"

(* ------------------------------------------------------------ accessors *)

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None

let to_float = function Some (Num f) -> Some f | Some Null -> Some nan | _ -> None

let to_str = function Some (Str s) -> Some s | _ -> None

let to_list = function Some (Arr items) -> Some items | _ -> None

(* ----------------------------------------------- perf-gate baseline *)

type baseline = { git_rev : string; case : string; ns_per_run : float }

let baseline_schema = "dcache-perf-gate/1"

(* %.15g when that reads back to the same float, else %.17g, which
   always does *)
let exact_float f =
  let s = Printf.sprintf "%.15g" f in
  if Float.equal (float_of_string s) f then s else Printf.sprintf "%.17g" f

(* [git_rev] is a hex commit id and [case] a bench name, printable
   ASCII, where OCaml's %S escapes are JSON's *)
let baseline_to_string b =
  if not (Float.is_finite b.ns_per_run) then
    invalid_arg "Bench_json.baseline_to_string: ns_per_run must be finite";
  Printf.sprintf
    "{\n  \"schema\": %S,\n  \"git_rev\": %S,\n  \"case\": %S,\n  \"ns_per_run\": %s\n}\n"
    baseline_schema b.git_rev b.case (exact_float b.ns_per_run)

let baseline_of_string text =
  match of_string text with
  | Error e -> Error e
  | Ok v -> (
      match to_str (member "schema" v) with
      | None -> Error (Printf.sprintf "no schema, expected %S" baseline_schema)
      | Some schema when not (String.equal schema baseline_schema) ->
          Error (Printf.sprintf "schema %S, expected %S" schema baseline_schema)
      | Some _ -> (
          match (to_str (member "git_rev" v), to_str (member "case" v), member "ns_per_run" v) with
          | Some git_rev, Some case, Some (Num ns_per_run) when Float.is_finite ns_per_run ->
              Ok { git_rev; case; ns_per_run }
          | _ -> Error "a baseline needs string git_rev and case and a finite ns_per_run"))
