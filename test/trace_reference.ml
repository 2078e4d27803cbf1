(* The list-based trace parser that Trace_io.of_string replaced, kept
   as the reference the differential tests compare it against: split
   the text into lines, each line into fields, parse each field with
   the [_opt] conversions, then build the instance from a list of
   pairs. *)

open Dcache_core

let parse_line lineno line =
  let line = String.trim line in
  if line = "" || line.[0] = '#' || String.lowercase_ascii line = "server,time" then Ok None
  else
    match String.split_on_char ',' line with
    | [ server; time ] -> (
        match (int_of_string_opt (String.trim server), float_of_string_opt (String.trim time)) with
        | Some server, Some time -> Ok (Some (server, time))
        | _ -> Error (Printf.sprintf "line %d: cannot parse %S" lineno line))
    | _ -> Error (Printf.sprintf "line %d: expected 'server,time', got %S" lineno line)

let of_string ~m text =
  let lines = String.split_on_char '\n' text in
  let rec collect lineno acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
        match parse_line lineno line with
        | Ok None -> collect (lineno + 1) acc rest
        | Ok (Some pair) -> collect (lineno + 1) (pair :: acc) rest
        | Error _ as e -> e)
  in
  match collect 1 [] lines with
  | Error _ as e -> e
  | Ok pairs -> (
      match
        Sequence.create_exn ~m
          (Array.of_list (List.map (fun (server, time) -> Request.make ~server ~time) pairs))
      with
      | seq -> Ok seq
      | exception Invalid_argument msg -> Error msg)
