type align = Left | Right

type column = { header : string; align : align }

let column ?(align = Right) header = { header; align }

type t = { columns : column array; mutable rows : string list list }

let create columns = { columns = Array.of_list columns; rows = [] }

let add_row t cells =
  if List.length cells <> Array.length t.columns then
    invalid_arg "Table.add_row: cell count mismatch";
  t.rows <- cells :: t.rows

let fmt_float ?(prec = 3) x =
  if x = infinity then "inf"
  else if x = neg_infinity then "-inf"
  else if Float.is_nan x then "nan"
  else Printf.sprintf "%.*f" prec x

let render t =
  let rows = List.rev t.rows in
  let ncols = Array.length t.columns in
  let widths = Array.map (fun c -> String.length c.header) t.columns in
  List.iter
    (fun row -> List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)) row)
    rows;
  let buf = Buffer.create 256 in
  let pad align width s =
    let fill = String.make (width - String.length s) ' ' in
    match align with Left -> s ^ fill | Right -> fill ^ s
  in
  let emit_row cells =
    List.iteri
      (fun i cell ->
        if i > 0 then Buffer.add_string buf "  ";
        Buffer.add_string buf (pad t.columns.(i).align widths.(i) cell))
      cells;
    Buffer.add_char buf '\n'
  in
  emit_row (Array.to_list (Array.map (fun c -> c.header) t.columns));
  for i = 0 to ncols - 1 do
    if i > 0 then Buffer.add_string buf "  ";
    Buffer.add_string buf (String.make widths.(i) '-')
  done;
  Buffer.add_char buf '\n';
  List.iter emit_row rows;
  Buffer.contents buf

let print t = print_string (render t)
