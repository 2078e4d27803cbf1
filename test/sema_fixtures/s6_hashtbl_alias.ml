(* S6 through a module alias: [H.fold] is [Hashtbl.fold] *)
module H = Hashtbl

let keys tbl = H.fold (fun k _ acc -> k :: acc) tbl []
let generate_keys n = keys (Hashtbl.create n)
