(* Whole-program call-graph extraction: one [unit_graph] per cmt.

   Everything in a [unit_graph] is plain marshalable data — no
   [Ident.t], [Path.t] or [Location.t] survives extraction — so the
   graph is cached per unit alongside the local findings and the
   global join ([Summary]) is recomputed from cached parts each run.

   Keys follow the same last-two-components convention the S3 liveness
   graph uses: [Dcache_core__Streaming_dp.push] and a fixture-local
   [module Streaming_dp] both key as [("Streaming_dp", "push")].
   docs/STATIC_ANALYSIS.md ("How summaries propagate") documents the
   model and its deliberate over- and under-approximations. *)

open Typedtree

module F = Report_finding

type key = string * string

(* Per-function facts, all "per call": the ambient effects a caller
   inherits.  Module-initialisation work (top-level value bindings) is
   deliberately excluded — it runs once, not per call. *)
type facts = {
  f_random : bool;  (* Stdlib.Random (Random.State draws excepted, self_init not) *)
  f_sys : bool;  (* Sys.* beyond the compile-time constants *)
  f_unix : bool;
  f_unordered : bool;  (* Hashtbl.fold/iter: unspecified traversal order *)
  f_gread : bool;  (* reads module-level mutable state *)
  f_gwrite : bool;  (* writes module-level mutable state *)
  f_mutex : bool;  (* takes a Mutex around its work *)
}

let no_facts =
  {
    f_random = false;
    f_sys = false;
    f_unix = false;
    f_unordered = false;
    f_gread = false;
    f_gwrite = false;
    f_mutex = false;
  }

let union a b =
  {
    f_random = a.f_random || b.f_random;
    f_sys = a.f_sys || b.f_sys;
    f_unix = a.f_unix || b.f_unix;
    f_unordered = a.f_unordered || b.f_unordered;
    f_gread = a.f_gread || b.f_gread;
    f_gwrite = a.f_gwrite || b.f_gwrite;
    f_mutex = a.f_mutex || b.f_mutex;
  }

type node = {
  nd_key : key;
  nd_path : string;  (* normalized .ml path *)
  nd_line : int;
  nd_candidate : bool;  (* S6: a lib/workload generator (rng/seed/generate) *)
  nd_facts : facts;  (* local facts only; [Summary] computes the closure *)
  nd_calls : key list list;  (* each callee as alternative keys, first match wins *)
  nd_raises : (string * int * int) list;
      (* exceptions raised in unguarded CFG blocks: (name, line, col) *)
  nd_unguarded : key list list;
      (* calls in unguarded blocks (closures built there included):
         the edges a callee's escaping exceptions propagate along *)
}

type capture = { cap_kind : string; cap_name : string }

type task =
  | Closure of { tk_writes : capture list; tk_mutex : bool; tk_calls : key list list }
  | Named of key list

type pool_site = { ps_fn : string; ps_line : int; ps_col : int; ps_task : task }

type unit_graph = {
  ug_unit : string;
  ug_path : string;
  ug_nodes : node list;
  ug_pool_sites : pool_site list;
  ug_blocks : int;  (* CFG basic blocks built for this unit *)
}

let empty_graph =
  {
    ug_unit = "";
    ug_path = "";
    ug_nodes = [];
    ug_pool_sites = [];
    ug_blocks = 0;
  }

(* ---------------------------------------------------------------- paths *)

(* Shared with [Sema_rules] (which re-exports them): last path
   component and enclosing module with dune's [lib__Unit] mangling
   stripped. *)
let strip_mangling name =
  let n = String.length name in
  let rec last_sep i =
    if i < 0 then None
    else if i + 1 < n && name.[i] = '_' && name.[i + 1] = '_' then Some i
    else last_sep (i - 1)
  in
  match last_sep (n - 2) with
  | Some i -> String.sub name (i + 2) (n - i - 2)
  | None -> name

let use_of_path p =
  match p with
  | Path.Pdot (prefix, value) ->
      let head = function
        | Path.Pident id -> Some (Ident.name id)
        | Path.Pdot (_, name) -> Some name
        | Path.Papply _ | Path.Pextra_ty _ -> None
      in
      (match head prefix with
      | Some unit_name -> Some (strip_mangling unit_name, value)
      | None -> None)
  | Path.Pident _ | Path.Papply _ | Path.Pextra_ty _ -> None

let has_prefix prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

let has_suffix suffix s = Filename.check_suffix s suffix

(* Units whose effects are sanctioned plumbing: the obs layer reads
   clocks and binds sockets by design, and [Prelude.Rng] wraps
   [Random.State] as the project's only randomness front door.  Left
   in the graph their facts would leak into every caller, so the
   whole unit is opaque: no nodes, no edges, nothing to inherit. *)
let exempt_unit ml_path =
  let p = F.normalize_path ml_path in
  has_prefix "lib/obs/" p || has_suffix "prelude/rng.ml" p

(* ------------------------------------------------------- classification *)

(* Sys values that read no ambient state: the compile-time constants,
   and [opaque_identity], which only hides a value from the optimiser. *)
let sys_pure =
  [
    "word_size"; "int_size"; "big_endian"; "max_string_length"; "max_array_length";
    "max_floatarray_length"; "ocaml_version"; "backend_type"; "unix"; "win32"; "cygwin";
    "opaque_identity";
  ]

let drop_stdlib name = if has_prefix "Stdlib." name then String.sub name 7 (String.length name - 7) else name

let last_dotted name =
  match String.rindex_opt name '.' with
  | Some i -> String.sub name (i + 1) (String.length name - i - 1)
  | None -> name

(* Ambient effects recognisable from the resolved path alone; applies
   to bare references too (passing [Hashtbl.fold] around is as
   order-dependent as calling it). *)
let ambient_of_name name =
  let n = drop_stdlib name in
  if has_suffix "self_init" n then { no_facts with f_random = true }
  else if has_prefix "Random." n && not (has_prefix "Random.State." n) then
    { no_facts with f_random = true }
  else if has_prefix "Sys." n && not (List.mem (last_dotted n) sys_pure) then
    { no_facts with f_sys = true }
  else if has_prefix "Unix." n || has_prefix "UnixLabels." n then { no_facts with f_unix = true }
  else no_facts

(* container operations that mutate their first argument in place *)
let mutator = function
  | ("Array" | "ArrayLabels" | "Bytes" | "BytesLabels"), ("set" | "unsafe_set" | "fill" | "blit")
  | ("Hashtbl" | "HashtblLabels"), ( "add" | "replace" | "remove" | "reset" | "clear"
    | "filter_map_inplace" )
  | "Buffer", ("clear" | "reset" | "truncate")
  | "Queue", ("add" | "push" | "pop" | "take" | "clear" | "transfer")
  | "Stack", ("push" | "pop" | "clear") ->
      true
  | "Buffer", b -> has_prefix "add_" b
  | _ -> false

(* mutable-typed top-level bindings are the "module-level mutable
   state" the gread/gwrite facts and S7 refer to *)
let mutable_global_type ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) -> (
      match p with
      | Path.Pident id -> List.mem (Ident.name id) [ "ref"; "array"; "bytes" ]
      | Path.Pdot (prefix, last) -> (
          let parent =
            match prefix with
            | Path.Pident id -> strip_mangling (Ident.name id)
            | Path.Pdot (_, name) -> strip_mangling name
            | _ -> ""
          in
          match (parent, last) with
          | _, ("ref" | "array" | "bytes") -> true
          | ("Hashtbl" | "Buffer" | "Queue" | "Stack"), "t" -> true
          | _ -> false)
      | _ -> false)
  | _ -> false

(* ------------------------------------------------------------ type scan *)

let rec arrow_params ty =
  match Types.get_desc ty with
  | Types.Tarrow (lbl, a, b, _) -> (lbl, a) :: arrow_params b
  | Types.Tpoly (ty, _) -> arrow_params ty
  | _ -> []

let is_rng_param ty =
  match Types.get_desc ty with
  | Types.Tconstr (Path.Pdot (prefix, "t"), _, _) -> (
      match prefix with
      | Path.Pident id -> strip_mangling (Ident.name id) = "Rng"
      | Path.Pdot (_, name) -> strip_mangling name = "Rng"
      | _ -> false)
  | _ -> false

(* S6 trigger: a generator is a function that threads randomness — an
   [Rng.t] parameter, a [~seed] label, or a [generate*] name. *)
let generator_candidate ~name ty =
  has_prefix "generate" name
  || List.exists
       (fun (lbl, pty) ->
         match lbl with
         | Asttypes.Labelled "seed" | Asttypes.Optional "seed" -> true
         | _ -> is_rng_param pty)
       (arrow_params ty)

(* --------------------------------------------------------------- helpers *)

(* The per-call body of a binding: its outer lambda spine peeled off.
   Peeling stops at the first non-[function] node: a [let] between
   parameters runs on (partial) application and so belongs to the
   per-call body. *)
let rec fn_leaves e acc =
  match e.exp_desc with
  | Texp_function { cases; _ } ->
      List.fold_left
        (fun acc c ->
          let acc = match c.c_guard with Some g -> g :: acc | None -> acc in
          fn_leaves c.c_rhs acc)
        acc cases
  | _ -> e :: acc

let is_function e = match e.exp_desc with Texp_function _ -> true | _ -> false

(* Call candidates: a [Pdot] resolves to one key; a bare [Pident]
   inside module [m] of unit [u] could name a binding of either, so
   both keys are tried (and later filtered against the unit's actual
   node set, which kills edges to local variables that merely share a
   top-level name). *)
type target = Remote of key | Locals of key list

let target_of_path ~mod_name ~unit_name p =
  match p with
  | Path.Pident id ->
      let n = Ident.name id in
      if mod_name = unit_name then Some (Locals [ (unit_name, n) ])
      else Some (Locals [ (mod_name, n); (unit_name, n) ])
  | _ -> ( match use_of_path p with Some k -> Some (Remote k) | None -> None)

(* ------------------------------------------------------------ extraction *)

(* per-function exception flow facts, targets unresolved until
   [finalize] *)
type raw_flow = { rf_raises : (string * int * int) list; rf_unguarded : target list }

let no_flow = { rf_raises = []; rf_unguarded = [] }

type ctx = {
  cx_unit : string;
  cx_path : string;
  mutable cx_tops : Ident.t list;  (* every top-level ident seen so far *)
  mutable cx_mutables : Ident.t list;  (* the mutable-typed subset *)
  mutable cx_nodes : (node * target list * raw_flow) list;
      (* reversed; call targets stay unresolved until [finalize] *)
  mutable cx_pool : (string * int * int * [ `Closure of capture list * bool * target list | `Named of target ]) list;
  mutable cx_blocks : int;
}

let is_global cx p =
  match p with Path.Pident id -> List.exists (Ident.same id) cx.cx_mutables | _ -> false

let is_top cx p =
  match p with
  | Path.Pident id -> List.exists (Ident.same id) cx.cx_tops
  | Path.Pdot _ -> true  (* module-qualified: top-level of some unit *)
  | _ -> false

let is_arrow ty = match Types.get_desc ty with Types.Tarrow _ -> true | _ -> false

(* one facts-and-calls walk shared by node bodies and pool closures *)
let scan_facts cx ~mod_name exprs =
  let facts = ref no_facts in
  let calls = ref [] in
  let mark f = facts := f !facts in
  let call p =
    match target_of_path ~mod_name ~unit_name:cx.cx_unit p with
    | Some t -> calls := t :: !calls
    | None -> ()
  in
  let classify p =
    let amb = ambient_of_name (Path.name p) in
    if amb <> no_facts then mark (union amb);
    (match use_of_path p with
    | Some (("Hashtbl" | "HashtblLabels"), ("fold" | "iter")) ->
        mark (fun f -> { f with f_unordered = true })
    | Some ("Mutex", _) -> mark (fun f -> { f with f_mutex = true })
    | _ -> ());
    if is_global cx p then mark (fun f -> { f with f_gread = true });
    call p
  in
  let first_positional args =
    List.find_map (function Asttypes.Nolabel, Some a -> Some a | _ -> None) args
  in
  let arg_is_top args =
    match first_positional args with
    | Some { exp_desc = Texp_ident (p, _, _); _ } -> is_top cx p || is_global cx p
    | _ -> false
  in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.exp_desc with
          | Texp_ident (p, _, _) -> classify p
          | Texp_setfield (tgt, _, _, _) -> (
              match tgt.exp_desc with
              | Texp_ident (p, _, _) when is_top cx p ->
                  mark (fun f -> { f with f_gwrite = true })
              | _ -> ())
          | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) -> (
              let name = drop_stdlib (Path.name p) in
              (match (name, args) with
              | (":=" | "incr" | "decr"), (_, Some { exp_desc = Texp_ident (t, _, _); _ }) :: _
                when is_top cx t ->
                  mark (fun f -> { f with f_gwrite = true })
              | "!", (_, Some { exp_desc = Texp_ident (t, _, _); _ }) :: _ when is_top cx t ->
                  mark (fun f -> { f with f_gread = true })
              | _ -> ());
              match use_of_path p with
              | Some k when mutator k && arg_is_top args ->
                  mark (fun f -> { f with f_gwrite = true })
              | Some _ | None -> ())
          | _ -> ());
          Tast_iterator.default_iterator.expr self e);
    }
  in
  List.iter (it.expr it) exprs;
  (!facts, List.rev !calls)

(* ------------------------------------------------- CFG-based flow scans *)

module StrSet = Set.Make (String)

(* sets of names under union, as a [Dataflow] lattice: S8's
   open-resource facts *)
module StrSetLattice = struct
  type fact = StrSet.t

  let bottom = StrSet.empty
  let equal = StrSet.equal
  let join = StrSet.union
end

(* tracked idents mentioned anywhere inside a deferred body *)
let captured_targets ~is_target e =
  let acc = ref [] in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun self ex ->
          (match ex.exp_desc with
          | Texp_ident (Path.Pident id, _, _) when is_target id -> acc := id :: !acc
          | _ -> ());
          Tast_iterator.default_iterator.expr self ex);
    }
  in
  it.expr it e;
  !acc

(* raises and calls inside a deferred body, skipping try-guarded
   subtrees: a closure built in an unguarded block usually runs
   unprotected (iterator callbacks, thunks), so its unguarded raises
   and calls count as the builder's own *)
let closure_flow ~unit_name ~mod_name e =
  let raises = ref [] in
  let calls = ref [] in
  let visit_cases : type k. Tast_iterator.iterator -> k case list -> unit =
   fun self cases ->
    List.iter
      (fun c ->
        (match c.c_guard with Some g -> self.expr self g | None -> ());
        self.expr self c.c_rhs)
      cases
  in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun self ex ->
          match ex.exp_desc with
          | Texp_try (_, cases) -> visit_cases self cases
          | Texp_match (_, cases, _) when List.exists Cfg.has_exception_case cases ->
              visit_cases self cases
          | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, _) ->
              (match Cfg.as_raise ex with
              | Some (Some exn) ->
                  let st = ex.exp_loc.Location.loc_start in
                  raises :=
                    (exn, st.Lexing.pos_lnum, st.Lexing.pos_cnum - st.Lexing.pos_bol) :: !raises
              | Some None -> ()
              | None -> (
                  match target_of_path ~mod_name ~unit_name p with
                  | Some t -> calls := t :: !calls
                  | None -> ()));
              Tast_iterator.default_iterator.expr self ex
          | _ -> Tast_iterator.default_iterator.expr self ex);
    }
  in
  it.expr it e;
  (List.rev !raises, List.rev !calls)

(* per-function CFG pass: the raises and calls that run outside every
   handler of the body *)
let scan_flow cx ~mod_name vb_expr =
  let raises = ref [] in
  let unguarded = ref [] in
  List.iter
    (fun leaf ->
      let cfg = Cfg.build leaf in
      cx.cx_blocks <- cx.cx_blocks + Cfg.n_blocks cfg;
      Array.iter
        (fun b ->
          let open_block = b.Cfg.b_handler = cfg.Cfg.cf_exc_exit in
          List.iter
            (fun stmt ->
              match stmt with
              | Cfg.S_expr e -> (
                  match Cfg.as_raise e with
                  | Some name_opt -> (
                      if open_block then
                        match name_opt with
                        | Some exn ->
                            let st = e.exp_loc.Location.loc_start in
                            raises :=
                              (exn, st.Lexing.pos_lnum, st.Lexing.pos_cnum - st.Lexing.pos_bol)
                              :: !raises
                        | None -> ())
                  | None -> (
                      match e.exp_desc with
                      | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, _) -> (
                          if open_block then
                            match target_of_path ~mod_name ~unit_name:cx.cx_unit p with
                            | Some t -> unguarded := t :: !unguarded
                            | None -> ())
                      | Texp_function _ | Texp_lazy _ ->
                          if open_block then begin
                            let rs, cs = closure_flow ~unit_name:cx.cx_unit ~mod_name e in
                            raises := List.rev_append rs !raises;
                            unguarded := List.rev_append cs !unguarded
                          end
                      | _ -> ()))
              | Cfg.S_bind _ -> ())
            b.Cfg.b_stmts)
        cfg.Cfg.cf_blocks)
    (fn_leaves vb_expr []);
  { rf_raises = List.rev !raises; rf_unguarded = List.rev !unguarded }

(* ------------------------------------------------------ pool-site scan *)

(* every ident bound anywhere inside [e] (patterns, for-loop indices) *)
let bound_idents e =
  let acc = ref [] in
  let it =
    {
      Tast_iterator.default_iterator with
      pat =
        (fun (type k) self (p : k general_pattern) ->
          (match p.pat_desc with
          | Tpat_var (id, _) -> acc := id :: !acc
          | Tpat_alias (_, id, _) -> acc := id :: !acc
          | _ -> ());
          Tast_iterator.default_iterator.pat self p);
      expr =
        (fun self e ->
          (match e.exp_desc with Texp_for (id, _, _, _, _, _) -> acc := id :: !acc | _ -> ());
          Tast_iterator.default_iterator.expr self e);
    }
  in
  it.expr it e;
  !acc

(* writes to state the closure did not create itself: assignments,
   field mutation and in-place container ops whose target is an ident
   bound outside the closure (or module-qualified) *)
let closure_captures cx ~mod_name closure =
  let bound = bound_idents closure in
  let is_bound p =
    match p with Path.Pident id -> List.exists (Ident.same id) bound | _ -> false
  in
  let writes = ref [] in
  let uses_mutex = ref false in
  let calls = ref [] in
  let write kind p = writes := { cap_kind = kind; cap_name = Path.name p } :: !writes in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.exp_desc with
          | Texp_ident (p, _, _) -> (
              (match use_of_path p with
              | Some ("Mutex", _) -> uses_mutex := true
              | _ -> ());
              match target_of_path ~mod_name ~unit_name:cx.cx_unit p with
              | Some t -> calls := t :: !calls
              | None -> ())
          | Texp_setfield ({ exp_desc = Texp_ident (p, _, _); _ }, _, _, _)
            when not (is_bound p) ->
              write "mutable field of" p
          | Texp_apply ({ exp_desc = Texp_ident (op, _, _); _ }, args) -> (
              let name = drop_stdlib (Path.name op) in
              (match (name, args) with
              | (":=" | "incr" | "decr"), (_, Some { exp_desc = Texp_ident (p, _, _); _ }) :: _
                when not (is_bound p) ->
                  write "ref" p
              | _ -> ());
              match use_of_path op with
              | Some ((container, _) as k) when mutator k -> (
                  match
                    List.find_map (function Asttypes.Nolabel, Some a -> Some a | _ -> None) args
                  with
                  | Some { exp_desc = Texp_ident (p, _, _); _ } when not (is_bound p) ->
                      write (String.lowercase_ascii container) p
                  | _ -> ())
              | _ -> ())
          | _ -> ());
          Tast_iterator.default_iterator.expr self e);
    }
  in
  it.expr it closure;
  (List.rev !writes, !uses_mutex, List.rev !calls)

let scan_pool_sites cx ~mod_name vb_expr =
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.exp_desc with
          | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) -> (
              match use_of_path p with
              | Some ("Pool", (("parallel_init" | "parallel_map") as fn)) ->
                  let line = e.exp_loc.Location.loc_start.Lexing.pos_lnum in
                  let col =
                    e.exp_loc.Location.loc_start.Lexing.pos_cnum
                    - e.exp_loc.Location.loc_start.Lexing.pos_bol
                  in
                  List.iter
                    (fun (_, arg) ->
                      match arg with
                      | Some ({ exp_desc = Texp_function _; _ } as closure) ->
                          let tk_writes, tk_mutex, calls =
                            closure_captures cx ~mod_name closure
                          in
                          cx.cx_pool <-
                            (fn, line, col, `Closure (tk_writes, tk_mutex, calls)) :: cx.cx_pool
                      | Some { exp_desc = Texp_ident (p2, _, _); exp_type; _ }
                        when is_arrow exp_type -> (
                          match target_of_path ~mod_name ~unit_name:cx.cx_unit p2 with
                          | Some t -> cx.cx_pool <- (fn, line, col, `Named t) :: cx.cx_pool
                          | None -> ())
                      | _ -> ())
                    args
              | _ -> ())
          | _ -> ());
          Tast_iterator.default_iterator.expr self e);
    }
  in
  it.expr it vb_expr

(* --------------------------------------------------------- per binding *)

let do_binding cx ~mod_name ~workload vb =
  (* [let x : t = e] types as an alias pattern, not a plain var *)
  match vb.vb_pat.pat_desc with
  | Tpat_var (id, _) | Tpat_alias ({ pat_desc = Tpat_any; _ }, id, _) ->
      let name = Ident.name id in
      cx.cx_tops <- id :: cx.cx_tops;
      if mutable_global_type vb.vb_expr.exp_type then cx.cx_mutables <- id :: cx.cx_mutables;
      let fn = is_function vb.vb_expr in
      (* value bindings run once at module init: their work is not a
         per-call fact of anything, so they contribute an empty node *)
      let facts, calls =
        if fn then scan_facts cx ~mod_name (fn_leaves vb.vb_expr []) else (no_facts, [])
      in
      let flow = if fn then scan_flow cx ~mod_name vb.vb_expr else no_flow in
      scan_pool_sites cx ~mod_name vb.vb_expr;
      let node =
        {
          nd_key = (mod_name, name);
          nd_path = cx.cx_path;
          nd_line = vb.vb_loc.Location.loc_start.Lexing.pos_lnum;
          nd_candidate = fn && workload && generator_candidate ~name vb.vb_expr.exp_type;
          nd_facts = facts;
          nd_calls = [];  (* filled in by [finalize] *)
          nd_raises = flow.rf_raises;
          nd_unguarded = [];  (* filled in by [finalize] *)
        }
      in
      cx.cx_nodes <- (node, calls, flow) :: cx.cx_nodes
  | _ -> ()

let rec do_structure cx ~mod_name ~workload str =
  List.iter
    (fun item ->
      match item.str_desc with
      | Tstr_value (_, vbs) -> List.iter (do_binding cx ~mod_name ~workload) vbs
      | Tstr_module mb -> do_module cx ~workload mb
      | Tstr_recmodule mbs -> List.iter (do_module cx ~workload) mbs
      | _ -> ())
    str.str_items

and do_module cx ~workload mb =
  let rec structure_of me =
    match me.mod_desc with
    | Tmod_structure str -> Some str
    | Tmod_constraint (me, _, _, _) -> structure_of me
    | _ -> None
  in
  match (mb.mb_id, structure_of mb.mb_expr) with
  | Some id, Some str -> do_structure cx ~mod_name:(Ident.name id) ~workload str
  | _ -> ()

(* ------------------------------------------------------------- finalize *)

(* Resolve [Locals] candidates against the unit's actual node keys:
   a bare ident that names no binding of this unit is a local
   variable, not an edge. *)
let finalize cx =
  let node_keys = List.map (fun (n, _, _) -> n.nd_key) cx.cx_nodes in
  let resolve_target = function
    | Remote k -> [ k ]
    | Locals ks -> List.filter (fun k -> List.mem k node_keys) ks
  in
  let resolve_calls targets =
    List.filter_map
      (fun t -> match resolve_target t with [] -> None | ks -> Some ks)
      targets
    |> List.sort_uniq compare
  in
  let nodes =
    List.rev_map
      (fun (n, calls, flow) ->
        {
          n with
          nd_calls = resolve_calls calls;
          nd_unguarded = resolve_calls flow.rf_unguarded;
        })
      cx.cx_nodes
  in
  let pool_sites =
    List.rev_map
      (fun (ps_fn, ps_line, ps_col, task) ->
        let ps_task =
          match task with
          | `Closure (tk_writes, tk_mutex, calls) ->
              Closure { tk_writes; tk_mutex; tk_calls = resolve_calls calls }
          | `Named t -> Named (resolve_target t)
        in
        { ps_fn; ps_line; ps_col; ps_task })
      cx.cx_pool
  in
  let pool_sites = List.filter (fun s -> s.ps_task <> Named []) pool_sites in
  {
    ug_unit = cx.cx_unit;
    ug_path = cx.cx_path;
    ug_nodes = nodes;
    ug_pool_sites = pool_sites;
    ug_blocks = cx.cx_blocks;
  }

let extract ~unit_name ~ml_path structure =
  if exempt_unit ml_path then empty_graph
  else begin
    let path = F.normalize_path ml_path in
    let cx =
      {
        cx_unit = unit_name;
        cx_path = path;
        cx_tops = [];
        cx_mutables = [];
        cx_nodes = [];
        cx_pool = [];
        cx_blocks = 0;
      }
    in
    do_structure cx ~mod_name:unit_name ~workload:(has_prefix "lib/workload/" path) structure;
    finalize cx
  end
