module F = Report_finding

(* --------------------------------------------------------------- files *)

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | contents -> Ok contents
  | exception Sys_error msg -> Error msg

let rec walk ~suffixes ~skip acc path =
  let base = Filename.basename path in
  if skip base then acc
  else if Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort String.compare
    |> List.fold_left (fun acc entry -> walk ~suffixes ~skip acc (Filename.concat path entry)) acc
  else if List.exists (fun s -> Filename.check_suffix path s) suffixes then path :: acc
  else acc

let default_skip base = base = "_build" || base = ".git"

let collect_files ?(skip = default_skip) ~suffixes roots =
  List.fold_left (walk ~suffixes ~skip) [] roots |> List.sort_uniq String.compare

(* --------------------------------------------------------- suppression *)

let marker = "dcache-sema:"

(* the index just past the first [marker] in [s] *)
let after_marker s =
  let m = String.length marker in
  let rec at i k = k = m || (s.[i + k] = marker.[k] && at i (k + 1)) in
  let rec from i =
    if i + m > String.length s then None else if at i 0 then Some (i + m) else from (i + 1)
  in
  from 0

(* "<marker> allow <id> ..." with <id> the rule or "all"; hand-rolled
   scan, Str is not linked.  [suppression_ids] returns the cleaned id
   list when the line carries a suppression comment at all — the
   stale-suppression gate needs to see rule-less matches too. *)
let suppression_ids line =
  match after_marker line with
  | None -> None
  | Some after ->
      let rest = String.sub line after (String.length line - after) in
      let words =
        String.split_on_char ' ' rest
        |> List.concat_map (String.split_on_char '\t')
        |> List.filter (fun w -> w <> "")
      in
      (match words with
      | "allow" :: ids when ids <> [] ->
          Some
            (List.map
               (fun id ->
                 String.to_seq id
                 |> Seq.take_while (fun c -> c <> '*' && c <> ')' && c <> ',')
                 |> String.of_seq)
               ids)
      | _ -> None)

let suppression_lines source =
  if after_marker source = None then []
  else
    String.split_on_char '\n' source
    |> List.mapi (fun i line -> (i + 1, line))
    |> List.filter_map (fun (n, line) ->
           match suppression_ids line with
           | Some _ -> Some (n, String.trim line)
           | None -> None)

(* Besides the surviving findings, report which source lines' comments
   actually suppressed something — the stale-suppression gate is their
   complement. *)
let apply_suppressions_tracked source findings =
  let lines = String.split_on_char '\n' source |> Array.of_list in
  let line_at n = if n >= 1 && n <= Array.length lines then lines.(n - 1) else "" in
  let allows ~rule n =
    match suppression_ids (line_at n) with
    | Some ids -> List.exists (fun id -> id = rule || id = "all") ids
    | None -> false
  in
  (* a comment-only line suppresses the line below it; a trailing
     comment suppresses its own line only *)
  let comment_only n =
    let trimmed = String.trim (line_at n) in
    String.length trimmed >= 2 && String.sub trimmed 0 2 = "(*"
  in
  let used = ref [] in
  let kept =
    List.filter
      (fun f ->
        let rule = f.F.rule in
        if allows ~rule f.F.line then begin
          used := f.F.line :: !used;
          false
        end
        else if comment_only (f.F.line - 1) && allows ~rule (f.F.line - 1) then begin
          used := (f.F.line - 1) :: !used;
          false
        end
        else true)
      findings
  in
  (kept, List.sort_uniq Int.compare !used)

(* ------------------------------------------------------------ baseline *)

type baseline_entry = { b_path : string; b_rule : string; b_message : string }

let parse_baseline contents =
  String.split_on_char '\n' contents
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if line = "" || line.[0] = '#' then None
         else
           match String.split_on_char '\t' line with
           | [ b_path; b_rule; b_message ] ->
               Some { b_path = F.normalize_path b_path; b_rule; b_message }
           | _ -> None)

let load_baseline path =
  match read_file path with Error _ as e -> e | Ok contents -> Ok (parse_baseline contents)

let baseline_line f = Printf.sprintf "%s\t%s\t%s" f.F.path f.F.rule f.F.message

let matches entry f =
  entry.b_path = f.F.path && entry.b_rule = f.F.rule && entry.b_message = f.F.message

let apply_baseline entries findings =
  let used = Array.make (List.length entries) false in
  let fresh =
    List.filter
      (fun f ->
        let covered = ref false in
        List.iteri
          (fun i entry ->
            if matches entry f then begin
              covered := true;
              used.(i) <- true
            end)
          entries;
        not !covered)
      findings
  in
  let stale = List.filteri (fun i _ -> not used.(i)) entries in
  (fresh, stale)
