(* Discovery and decoding of the .cmt/.cmti files dune leaves under
   .<lib>.objs/byte and .<exe>.eobjs/byte. *)

module E = Report_engine

type unit_info = {
  cmt_path : string;
  cmti_path : string option;  (* the unit's interface, when it has one *)
}

(* dune's generated wrapper modules (lib aliases) have no source of
   their own; their cmt_sourcefile ends in .ml-gen. *)
let generated source = Filename.check_suffix source ".ml-gen"

let scan_units roots =
  let skip base = base = ".git" || base = "install" || base = ".sandbox" in
  E.collect_files ~skip ~suffixes:[ ".cmt" ] roots
  |> List.map (fun cmt_path ->
         let cmti = Filename.remove_extension cmt_path ^ ".cmti" in
         {
           cmt_path;
           cmti_path = (if Sys.file_exists cmti then Some cmti else None);
         })

type decoded = {
  impl : Typedtree.structure option;
  intf : Typedtree.signature option;
  ml_source : string;  (* as recorded at compile time, e.g. lib/core/online_sc.ml *)
  mli_source : string option;
}

let read_annots path =
  match Cmt_format.read_cmt path with
  | cmt -> Ok (cmt.Cmt_format.cmt_annots, Option.value ~default:"" cmt.Cmt_format.cmt_sourcefile)
  | exception exn -> Error (Printf.sprintf "%s: unreadable cmt (%s)" path (Printexc.to_string exn))

let decode_unit info =
  match read_annots info.cmt_path with
  | Error _ as e -> e
  | Ok (annots, ml_source) ->
      if generated ml_source || ml_source = "" then Ok None
      else
        let impl =
          match annots with Cmt_format.Implementation str -> Some str | _ -> None
        in
        let intf, mli_source =
          match info.cmti_path with
          | None -> (None, None)
          | Some cmti -> (
              match read_annots cmti with
              | Ok (Cmt_format.Interface sg, src) -> (Some sg, Some src)
              | Ok _ | Error _ -> (None, None))
        in
        Ok (Some { impl; intf; ml_source; mli_source })
