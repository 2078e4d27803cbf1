(* Prometheus text-format 0.0.4 exposition + a minimal synchronous
   HTTP endpoint.  No dependencies beyond [unix]; no threads — the
   long-run driver interleaves [poll] with its batch loop, so the
   whole serving story stays on one domain and under the injected
   clock discipline (nothing here reads ambient time at all).

   Rendering walks the registry in name order ([Obs.walk]), so the
   exposition is a pure function of metric state: deterministic
   metric state (tick clocks, fixed seeds) gives a byte-identical
   exposition at any pool width. *)

(* --------------------------------------------------------- rendering *)

(* [Printf.sprintf "%.12g"] ends in this primitive, after running the
   format interpreter's closures *)
external format_float : string -> float -> string = "caml_format_float"

let quantile_probes = [| 0.5; 0.9; 0.99; 0.999 |]

let content_type = "text/plain; version=0.0.4"

(* spec floats: NaN / +Inf / -Inf, "%.12g" otherwise.  [Float.is_nan]
   and a sign test keep lint R2 (no float [=]) happy. *)
let add_float b v =
  if Float.is_nan v then Buffer.add_string b "NaN"
  else if not (Float.is_finite v) then Buffer.add_string b (if v > 0.0 then "+Inf" else "-Inf")
  else Buffer.add_string b (format_float "%.12g" v)

(* [string_of_int] without the string: the digits of a negative [n]
   come from negative remainders, so [min_int] needs no negation.
   [digits] is shared: it is written only under the scrape lock. *)
let digits = Bytes.create 20

let add_int b n =
  if n = 0 then Buffer.add_char b '0'
  else begin
    let k = ref 20 and v = ref n in
    while !v <> 0 do
      decr k;
      Bytes.set digits !k (Char.chr (48 + abs (!v mod 10)));
      v := !v / 10
    done;
    if n < 0 then Buffer.add_char b '-';
    Buffer.add_subbytes b digits !k (20 - !k)
  end

let ns_to_s ns = ns /. 1e9

(* The text around each value, per registry id, built the first time
   the id is rendered.  A registered name never changes, so an entry
   never goes stale.  Registry names may be encoded labeled children,
   [base{k="v"}] (see Obs's labeled families): the family is the
   base's, the inner label text goes into the sample prefix verbatim
   (the value was escaped at interning), after the type suffix.
   Registry names need no HELP escaping: their grammar has no
   backslash and no newline. *)
type plain = {
  family : string;  (* HELP/TYPE are printed once per family *)
  head : string;  (* the family's HELP and TYPE lines *)
  prefix : string;  (* the sample's name and label block, and the space *)
}

type summary = {
  s_head : string;
  quantile : string array;  (* one prefix per [quantile_probes] *)
  sum : string;
  count : string;
}

let head family typ base =
  String.concat ""
    [ "# HELP "; family; " dcache metric "; base; "\n# TYPE "; family; " "; typ; "\n" ]

let plain_entry kind typ name =
  let n = String.length name in
  let base, labels =
    match String.index_opt name '{' with
    | Some i when n > i + 1 && Char.equal name.[n - 1] '}' ->
        (String.sub name 0 i, String.sub name i (n - i))
    | Some _ | None -> (name, "")
  in
  let family = Obs.exported_name kind base in
  { family; head = head family typ base; prefix = String.concat "" [ family; labels; " " ] }

let summary_entry name =
  let family = Obs.exported_name Obs.Summary name in
  {
    s_head = head family "summary" name;
    quantile =
      Array.map
        (fun q -> String.concat "" [ family; "{quantile=\""; format_float "%.12g" q; "\"} " ])
        quantile_probes;
    sum = family ^ "_sum ";
    count = family ^ "_count ";
  }

(* the entries by registry id, grown as registries grow *)
let entry cache build id name =
  if id >= Array.length !cache then begin
    let grown = Array.make (max (id + 1) (2 * Array.length !cache)) None in
    Array.blit !cache 0 grown 0 (Array.length !cache);
    cache := grown
  end;
  match !cache.(id) with
  | Some e -> e
  | None ->
      let e = build name in
      !cache.(id) <- Some e;
      e

let counter_entry name = plain_entry Obs.Counter "counter" name
let gauge_entry name = plain_entry Obs.Gauge "gauge" name

let counters : plain option array ref = ref [||]
let gauges : plain option array ref = ref [||]
let summaries : summary option array ref = ref [||]

(* One buffer for every scrape, cleared each time, and the lock that
   makes the scrape safe from any domain (a mutex allocates nothing).
   The walk's callbacks below are top-level functions, so passing them
   allocates no closure either. *)
let out = Buffer.create 16384
let scrape_lock = Mutex.create ()
let last_family = ref ""

let family_head e =
  if not (String.equal e.family !last_family) then begin
    Buffer.add_string out e.head;
    last_family := e.family
  end

let counter_lines id name v =
  let e = entry counters counter_entry (id : Obs.counter :> int) name in
  family_head e;
  Buffer.add_string out e.prefix;
  add_int out v;
  Buffer.add_char out '\n'

let gauge_lines id name v =
  let e = entry gauges gauge_entry (id : Obs.gauge :> int) name in
  family_head e;
  Buffer.add_string out e.prefix;
  add_float out v;
  Buffer.add_char out '\n'

(* span-duration summaries, in seconds; a span never entered reports
   NaN quantiles (the Prometheus convention for empty summaries) but
   keeps its _count 0 line so dashboards can key on it from the first
   scrape *)
let summary_lines id name h =
  let e = entry summaries summary_entry (id : Obs.span :> int) name in
  Buffer.add_string out e.s_head;
  let n = Histo_log.count h in
  if n = 0 then
    Array.iter
      (fun prefix ->
        Buffer.add_string out prefix;
        Buffer.add_string out "NaN\n")
      e.quantile
  else begin
    let qv = Histo_log.quantiles h quantile_probes in
    for i = 0 to Array.length quantile_probes - 1 do
      Buffer.add_string out e.quantile.(i);
      add_float out (ns_to_s qv.(i));
      Buffer.add_char out '\n'
    done
  end;
  Buffer.add_string out e.sum;
  add_float out (ns_to_s (float_of_int (Histo_log.sum h)));
  Buffer.add_char out '\n';
  Buffer.add_string out e.count;
  add_int out n;
  Buffer.add_char out '\n'

let render () =
  Buffer.clear out;
  last_family := "";
  Obs.walk ~counter:counter_lines ~gauge:gauge_lines ~span:summary_lines;
  Buffer.contents out

let exposition () = Mutex.protect scrape_lock render

(* ------------------------------------------------------ golden parser *)

(* Just enough of the 0.0.4 grammar to catch a malformed exposition:
   comment lines (with HELP/TYPE shape checks), sample lines with
   optional {labels} and an optional integer timestamp. *)

let is_name_char c =
  match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true | _ -> false

(* first char of a metric/label name must not be a digit: the spec
   grammar is [a-zA-Z_:] followed by [a-zA-Z0-9_:] repeated *)
let is_name_start c = match c with '0' .. '9' -> false | c -> is_name_char c

let valid_name s = String.length s > 0 && is_name_start s.[0] && String.for_all is_name_char s

let known_type t =
  match t with
  | "counter" | "gauge" | "histogram" | "summary" | "untyped" -> true
  | _ -> false

(* [parse_sample] returns the literal metric name, its (label,
   unescaped value) pairs and the series' text, so [validate] can
   enforce family-level consistency and one line per series on top of
   the line-level grammar.  A label value may escape only a backslash,
   a double quote and a newline (as n). *)
let parse_sample line =
  let n = String.length line in
  let i = ref 0 in
  while !i < n && is_name_char line.[!i] do
    incr i
  done;
  if !i = 0 || not (is_name_start line.[0]) then Error "missing or malformed metric name"
  else
    let name = String.sub line 0 !i in
    let labels_ok =
      if !i < n && Char.equal line.[!i] '{' then begin
        incr i;
        let rec labels acc =
          if !i >= n then Error "unterminated label set"
          else if Char.equal line.[!i] '}' then begin
            incr i;
            Ok (List.rev acc)
          end
          else begin
            let s0 = !i in
            while !i < n && is_name_char line.[!i] do
              incr i
            done;
            if !i = s0 then Error "bad label name"
            else begin
              let key = String.sub line s0 (!i - s0) in
              if List.exists (fun (k, _) -> String.equal key k) acc then
                Error ("duplicate label name " ^ key)
              else if !i < n && Char.equal line.[!i] '=' then begin
                incr i;
                if !i < n && Char.equal line.[!i] '"' then begin
                  incr i;
                  let value = Buffer.create 16 in
                  let rec str () =
                    if !i >= n then Error "unterminated label value"
                    else if Char.equal line.[!i] '\\' then begin
                      if !i + 1 >= n then Error "unterminated label value"
                      else begin
                        let c = line.[!i + 1] in
                        i := !i + 2;
                        match c with
                        | '\\' | '"' ->
                            Buffer.add_char value c;
                            str ()
                        | 'n' ->
                            Buffer.add_char value '\n';
                            str ()
                        | c -> Error (Printf.sprintf "unknown escape \\%c in label value" c)
                      end
                    end
                    else if Char.equal line.[!i] '"' then begin
                      incr i;
                      Ok ()
                    end
                    else begin
                      Buffer.add_char value line.[!i];
                      incr i;
                      str ()
                    end
                  in
                  match str () with
                  | Error _ as e -> e
                  | Ok () ->
                      if !i < n && Char.equal line.[!i] ',' then incr i;
                      labels ((key, Buffer.contents value) :: acc)
                end
                else Error "label value must be double-quoted"
              end
              else Error "expected '=' after label name"
            end
          end
        in
        labels []
      end
      else Ok []
    in
    match labels_ok with
    | Error e -> Error e
    | Ok pairs ->
        let series = String.sub line 0 !i in
        if !i < n && Char.equal line.[!i] ' ' then begin
          let rest = String.sub line (!i + 1) (n - !i - 1) in
          let fields =
            List.filter (fun s -> String.length s > 0) (String.split_on_char ' ' rest)
          in
          let value_ok v =
            match float_of_string_opt v with
            | Some _ -> Ok (name, pairs, series)
            | None -> Error ("unparseable sample value " ^ v)
          in
          match fields with
          | [ v ] -> value_ok v
          | [ v; ts ] -> (
              match value_ok v with
              | Error _ as e -> e
              | Ok _ -> (
                  match int_of_string_opt ts with
                  | Some _ -> Ok (name, pairs, series)
                  | None -> Error ("unparseable timestamp " ^ ts)))
          | _ -> Error "expected 'name[{labels}] value [timestamp]'"
        end
        else Error "missing sample value"

(* what a TYPE or HELP line declares, if the line is one *)
let parse_comment line =
  let fields = String.split_on_char ' ' line in
  match fields with
  | "#" :: "TYPE" :: name :: [ typ ] ->
      if not (valid_name name) then Error ("bad metric name in TYPE: " ^ name)
      else if not (known_type typ) then Error ("unknown metric type " ^ typ)
      else Ok (Some (`Type (name, typ)))
  | "#" :: "TYPE" :: _ -> Error "TYPE line needs 'name type'"
  | "#" :: "HELP" :: name :: _ ->
      if valid_name name then Ok (Some (`Help name)) else Error ("bad metric name in HELP: " ^ name)
  | "#" :: "HELP" :: _ -> Error "HELP line needs a metric name"
  | _ -> Ok None (* free-form comment *)

let validate text =
  let lines = String.split_on_char '\n' text in
  (* literal metric name -> sorted label-name set of its first sample;
     every later sample of the same name must carry the same set *)
  let families : (string, string list) Hashtbl.t = Hashtbl.create 64 in
  (* each TYPE line's type, each HELP line's name, and each series
     seen, keyed by its name and sorted (label, unescaped value) pairs *)
  let typed : (string, string) Hashtbl.t = Hashtbl.create 64 in
  let helped : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  let series_seen : (string * (string * string) list, unit) Hashtbl.t = Hashtbl.create 256 in
  (* has the family a TYPE or HELP line for [name] introduces already
     carried a sample: the name itself, or a summary's _sum/_count *)
  let family_sampled name =
    Hashtbl.mem families name
    || (Hashtbl.find_opt typed name = Some "summary"
       && (Hashtbl.mem families (name ^ "_sum") || Hashtbl.mem families (name ^ "_count")))
  in
  let rec go ln samples remaining =
    match remaining with
    | [] -> Ok samples
    | line :: rest ->
        if String.length line = 0 then go (ln + 1) samples rest
        else if Char.equal line.[0] '#' then begin
          let fail fmt = Printf.ksprintf (fun msg -> Error (Printf.sprintf "line %d: %s" ln msg)) fmt in
          match parse_comment line with
          | Ok None -> go (ln + 1) samples rest
          | Ok (Some (`Type (name, typ))) ->
              if Hashtbl.mem typed name then fail "second TYPE line for metric %s" name
              else begin
                Hashtbl.add typed name typ;
                if family_sampled name then fail "TYPE line for metric %s after its samples" name
                else go (ln + 1) samples rest
              end
          | Ok (Some (`Help name)) ->
              if Hashtbl.mem helped name then fail "second HELP line for metric %s" name
              else if family_sampled name then fail "HELP line for metric %s after its samples" name
              else begin
                Hashtbl.add helped name ();
                go (ln + 1) samples rest
              end
          | Error e -> fail "%s" e
        end
        else begin
          match parse_sample line with
          | Ok (name, pairs, series) -> (
              let pairs = List.sort compare pairs in
              let keys = List.map fst pairs in
              if Hashtbl.mem series_seen (name, pairs) then
                Error (Printf.sprintf "line %d: repeated series %s" ln series)
              else begin
                Hashtbl.add series_seen (name, pairs) ();
                match Hashtbl.find_opt families name with
                | None ->
                    Hashtbl.add families name keys;
                    go (ln + 1) (samples + 1) rest
                | Some prior ->
                    if List.equal String.equal prior keys then go (ln + 1) (samples + 1) rest
                    else
                      Error
                        (Printf.sprintf "line %d: inconsistent label set for metric %s" ln name)
              end)
          | Error e -> Error (Printf.sprintf "line %d: %s" ln e)
        end
  in
  go 1 0 lines

(* ------------------------------------------------------- HTTP endpoint *)

type server = { fd : Unix.file_descr; s_port : int }

let listen ?(host = "127.0.0.1") ~port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  (match Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port)) with
  | () -> ()
  | exception e ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise e);
  Unix.listen fd 16;
  Unix.set_nonblock fd;
  let s_port =
    match Unix.getsockname fd with Unix.ADDR_INET (_, p) -> p | _ -> port
  in
  { fd; s_port }

let port s = s.s_port

let close s = try Unix.close s.fd with Unix.Unix_error _ -> ()

let http_response ~status ~ctype body =
  Printf.sprintf "HTTP/1.1 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s"
    status ctype (String.length body) body

(* first request line: "METHOD /path HTTP/1.x" *)
let request_target raw =
  match String.index_opt raw ' ' with
  | None -> None
  | Some sp1 -> (
      let meth = String.sub raw 0 sp1 in
      let rest = String.sub raw (sp1 + 1) (String.length raw - sp1 - 1) in
      match String.index_opt rest ' ' with
      | None -> None
      | Some sp2 -> Some (meth, String.sub rest 0 sp2))

let write_all fd s =
  let n = String.length s in
  let off = ref 0 in
  (try
     while !off < n do
       off := !off + Unix.write_substring fd s !off (n - !off)
     done
   with Unix.Unix_error _ -> () (* client went away: drop the response *))

let serve_client fd =
  let buf = Bytes.create 4096 in
  let len = try Unix.read fd buf 0 4096 with Unix.Unix_error _ -> 0 in
  let target = if len > 0 then request_target (Bytes.sub_string buf 0 len) else None in
  let response =
    match target with
    | Some ("GET", "/metrics") ->
        http_response ~status:"200 OK" ~ctype:content_type (exposition ())
    | Some ("GET", _) -> http_response ~status:"404 Not Found" ~ctype:"text/plain" "not found\n"
    | Some _ ->
        http_response ~status:"405 Method Not Allowed" ~ctype:"text/plain"
          "method not allowed\n"
    | None -> http_response ~status:"400 Bad Request" ~ctype:"text/plain" "bad request\n"
  in
  write_all fd response

let rec poll_from s served =
  match Unix.accept s.fd with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> served
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> poll_from s served
  | client, _addr ->
      (try Unix.clear_nonblock client with Unix.Unix_error _ -> ());
      Fun.protect
        ~finally:(fun () -> try Unix.close client with Unix.Unix_error _ -> ())
        (fun () -> serve_client client);
      poll_from s (served + 1)

let poll s = poll_from s 0
