(* The Prometheus renderer as it was before the scrape rendered from
   cached line parts into one reused buffer: every name is sanitised,
   every HELP text escaped and every value printed through
   [Printf.sprintf] on each scrape, from name-sorted lists of the
   registry.  Kept as the oracle of the differential test in
   test_obs.ml, which checks that [Prometheus.exposition] prints the
   same bytes for the same metric state. *)

module Obs = Dcache_obs.Obs
module Histo_log = Dcache_obs.Histo_log

let metric_name s =
  String.map
    (fun c ->
      match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c | _ -> '_')
    s

let escape_label s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let escape_help s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let quantile_probes = [| 0.5; 0.9; 0.99; 0.999 |]

let fmt_float v =
  if Float.is_nan v then "NaN"
  else if not (Float.is_finite v) then if v > 0.0 then "+Inf" else "-Inf"
  else Printf.sprintf "%.12g" v

let ns_to_s ns = ns /. 1e9

let split_labels name =
  let n = String.length name in
  match String.index_opt name '{' with
  | Some i when n > i + 1 && Char.equal name.[n - 1] '}' ->
      (String.sub name 0 i, Some (String.sub name (i + 1) (n - i - 2)))
  | Some _ | None -> (name, None)

(* name-sorted here, so the differential test also checks the order
   the renderer's walk gives *)
let by_name pairs = List.sort (fun (a, _) (b, _) -> String.compare a b) pairs

let exposition () =
  let b = Buffer.create 4096 in
  let meta full typ orig =
    Buffer.add_string b "# HELP ";
    Buffer.add_string b full;
    Buffer.add_string b " dcache metric ";
    Buffer.add_string b (escape_help orig);
    Buffer.add_char b '\n';
    Buffer.add_string b "# TYPE ";
    Buffer.add_string b full;
    Buffer.add_char b ' ';
    Buffer.add_string b typ;
    Buffer.add_char b '\n'
  in
  let sample ?enc name labels value =
    Buffer.add_string b name;
    (match (enc, labels) with
    | None, [] -> ()
    | _ ->
        Buffer.add_char b '{';
        (match enc with Some inner -> Buffer.add_string b inner | None -> ());
        List.iteri
          (fun i (k, v) ->
            if i > 0 || Option.is_some enc then Buffer.add_char b ',';
            Buffer.add_string b k;
            Buffer.add_string b "=\"";
            Buffer.add_string b (escape_label v);
            Buffer.add_char b '"')
          labels;
        Buffer.add_char b '}');
    Buffer.add_char b ' ';
    Buffer.add_string b value;
    Buffer.add_char b '\n'
  in
  let last_family = ref "" in
  let family full typ base =
    if not (String.equal full !last_family) then begin
      meta full typ base;
      last_family := full
    end
  in
  List.iter
    (fun (name, v) ->
      let base, enc = split_labels name in
      let full = "dcache_" ^ metric_name base ^ "_total" in
      family full "counter" base;
      sample ?enc full [] (string_of_int v))
    (by_name (Helpers.counter_totals ()));
  List.iter
    (fun (name, v) ->
      let base, enc = split_labels name in
      let full = "dcache_" ^ metric_name base in
      family full "gauge" base;
      sample ?enc full [] (fmt_float v))
    (by_name (Helpers.gauge_values ()));
  List.iter
    (fun (name, h) ->
      let full = "dcache_" ^ metric_name name ^ "_duration_seconds" in
      meta full "summary" name;
      let n = Histo_log.count h in
      let qv = Histo_log.quantiles h quantile_probes in
      Array.iteri
        (fun i q ->
          let v = if n = 0 then Float.nan else ns_to_s qv.(i) in
          sample full [ ("quantile", fmt_float q) ] (fmt_float v))
        quantile_probes;
      sample (full ^ "_sum") [] (fmt_float (ns_to_s (float_of_int (Histo_log.sum h))));
      sample (full ^ "_count") [] (string_of_int n))
    (by_name (Helpers.span_durations ()));
  Buffer.contents b
