(* The per-unit rules: typed checks over one compilation unit's
   Typedtree, read back from the .cmt/.cmti files dune produces with
   -bin-annot.

   Most of this module is intraprocedural and syntactic-over-types:
   rules look at what an expression *is* (its type, where the value it
   names is defined after the typechecker resolved aliases and opens),
   not at what callees do.  S8 goes one step further and runs the
   [Cfg]/[Dataflow] engine per function body, but still within one
   unit.  Cross-function behaviour lives in the summary layer
   ([Callgraph] + [Summary] + [Sema_interproc]), which powers S2's
   exception flow, S6 and S7.
   docs/STATIC_ANALYSIS.md documents the catalog and the limits. *)

open Typedtree
module F = Report_finding

(* Bumped on any rule or summary change: the engine folds it into
   every unit digest, so a rules update invalidates the incremental
   cache wholesale and stale cached analyses cannot mask new
   findings. *)
let analyzer_version = "14"

(* A rule and the source paths its findings are reported for.  Every
   unit is analyzed and joins the whole-program graphs whatever its
   path; the scope only decides where a finding may anchor. *)
type rule = { id : string; scope : string list; summary : string }

(* the R rules cover every directory of first-party code *)
let first_party = [ "lib/"; "bin/"; "bench/"; "examples/"; "tools/" ]

let catalog =
  [
    { id = "R1"; scope = first_party;
      summary = "determinism: ambient randomness or unordered Hashtbl traversal" };
    { id = "R2"; scope = first_party;
      summary = "float comparison: exact =, <>, compare, min, max on cost-valued floats" };
    { id = "R3"; scope = [ "lib/" ];
      summary = "totality: partial stdlib functions and bare failwith in lib/" };
    { id = "R4"; scope = first_party;
      summary = "polymorphic compare on Schedule.t / Request.t values" };
    { id = "S2"; scope = [ "lib/core/"; "lib/baselines/" ];
      summary =
        "exception escape: undocumented exceptions escaping public lib/core / lib/baselines \
         values, tracked interprocedurally through unguarded callee chains" };
    { id = "S3"; scope = [ "lib/" ];
      summary = "dead export: .mli value that no product unit other than its own references" };
    { id = "S4"; scope = [ "lib/" ];
      summary = "numeric stability: float cost accumulator folded with bare +. in a loop" };
    { id = "S5"; scope = [ "lib/" ];
      summary =
        "observability discipline: a Recording sink constructed, a Prometheus endpoint / Audit \
         state created, or a labeled metric child resolved (Obs.*_with_label), inside a [@@hot] \
         body" };
    { id = "S6"; scope = [ "lib/workload/" ];
      summary =
        "generator purity: a lib/workload generator must be a deterministic function of \
         (seed, spec), transitively through its callees" };
    { id = "S7"; scope = [ "lib/" ];
      summary =
        "domain safety: a task passed to Pool.parallel_init/parallel_map must not mutate \
         captured or module-level state without a Mutex" };
    { id = "S8"; scope = [ "lib/" ];
      summary =
        "lock/resource discipline: on every CFG path (exceptional ones included) Mutex.lock \
         must reach Mutex.unlock and a Unix.socket/openfile/accept result must reach Unix.close \
         or an explicit hand-off" };
  ]

(* is a finding inside its rule's scope? *)
let in_scope (f : F.t) =
  List.exists
    (fun r -> r.id = f.rule && List.exists (fun dir -> Callgraph.has_prefix dir f.path) r.scope)
    catalog

(* every directory some rule reaches: where the stale-suppression
   scan looks (the file walk drops the overlaps) *)
let scope_dirs = List.sort_uniq String.compare (List.concat_map (fun r -> r.scope) catalog)

(* The per-unit result the engine caches (keyed by stamp+cmt digest):
   local findings are raw (pre-suppression — the engine applies and
   tracks suppressions each run, which is what lets it flag stale
   ones); S3 and the interprocedural rules are assembled globally from
   [exports]/[uses]/[graph] afterwards. *)
type unit_analysis = {
  ua_findings : F.t list;
  ua_exports : (string * int * string * string) list;
      (* value, .mli line, .mli path, doc comment (S2v2 checks @raise) *)
  ua_uses : (string * string) list;  (* (unit, value) referenced via a module path *)
  ua_graph : Callgraph.unit_graph;
  ua_blocks : int;  (* CFG blocks built for this unit (S8 + callgraph) *)
  ua_iters : int;  (* dataflow sweeps to fixpoint for this unit *)
}

(* ---------------------------------------------------------------- paths *)

(* the unit a module path names, unmangled *)
let unit_of_module_path = function
  | Path.Pident id -> Some (Callgraph.strip_mangling (Ident.name id))
  | Path.Pdot (_, name) -> Some (Callgraph.strip_mangling name)
  | Path.Papply _ | Path.Pextra_ty _ -> None

(* ---------------------------------------------------------------- types *)

let rec is_float_type ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, [], _) -> Path.same p Predef.path_float
  | Types.Tpoly (ty, []) -> is_float_type ty
  | _ -> false

(* ----------------------------------------------------------- attributes *)

let has_attr names attrs =
  List.exists (fun (a : Parsetree.attribute) -> List.mem a.attr_name.txt names) attrs

let is_hot vb = has_attr [ "hot"; "dcache.hot" ] vb.vb_attributes

let doc_of_attrs attrs =
  List.filter_map
    (fun (a : Parsetree.attribute) ->
      if a.attr_name.txt <> "ocaml.doc" && a.attr_name.txt <> "doc" then None
      else
        match a.attr_payload with
        | PStr
            [
              {
                pstr_desc =
                  Pstr_eval ({ pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }, _);
                _;
              };
            ] ->
            Some s
        | _ -> None)
    attrs
  |> String.concat "\n"

(* ------------------------------------- S5: observability discipline *)

(* A hot function must only ever *probe* the installed sink; building
   an [Obs.Recording _] value inside a [@@hot] body means the caller
   is deciding per-call whether to trace — that allocates a recorder
   (or at least a sink block) on the request path and bypasses the
   one-global-sink contract [set_sink] maintains.  Construct the sink
   once at startup (bin/, bench/, tests) and let the hot code see it
   through [Obs.probe].  Matched on the typed tree: any constructor
   named [Recording] whose result type is a [sink].

   The same discipline covers the obs setup entry points that arrived
   with the telemetry layer: [Prometheus.listen] binds a socket — it
   exists to be called once at startup, never per request.
   [Audit.create] (the streaming competitive-ratio auditor) joined
   the same family: it allocates a witness ring and owns per-stream
   telemetry state, so a fresh auditor inside a [@@hot] body means
   audit state is being rebuilt on the request path instead of living
   with the stream.  Matched on the resolved application path's last
   two components, so local modules named [Prometheus]/[Audit] in
   fixtures key the same way as the real [Dcache_obs] ones. *)

let s5_setup_call = function
  | ("Prometheus", "listen") | ("Audit", "create") -> true
  | _ -> false

(* Child resolution on a labeled family is a hash-interning step under
   the registry lock; a hot body doing it per call is paying the
   lookup the vec API exists to hoist.  Matched like [s5_setup_call]:
   the last two components of the resolved path, so a local [Obs] shim
   in fixtures keys the same as [Dcache_obs.Obs]. *)
let s5_resolve_call = function
  | "Obs", ("counter_with_label" | "gauge_with_label") -> true
  | _ -> false

let is_sink_type ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) -> Path.last p = "sink"
  | _ -> false

let scan_s5_hot_body ~path ~fname add body =
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.exp_desc with
          | Texp_construct (_, cd, _)
            when cd.Types.cstr_name = "Recording" && is_sink_type e.exp_type ->
              add
                (F.make ~path ~loc:e.exp_loc ~rule:"S5"
                   (Printf.sprintf
                      "`Recording` sink constructed in the body of hot `%s`: build the sink once \
                       at startup and let the hot path observe it via `Obs.probe`"
                      fname))
          | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, _) -> (
              match Callgraph.use_of_path p with
              | Some ((m, v) as key) when s5_resolve_call key ->
                  add
                    (F.make ~path ~loc:e.exp_loc ~rule:"S5"
                       (Printf.sprintf
                          "`%s.%s` called in the body of hot `%s`: labeled-child resolution is a \
                           lock-and-hash interning step — resolve at registration or loop entry \
                           and let the hot path bump the plain cell" m v fname))
              | Some ((m, v) as key) when s5_setup_call key ->
                  add
                    (F.make ~path ~loc:e.exp_loc ~rule:"S5"
                       (Printf.sprintf
                          "`%s.%s` called in the body of hot `%s`: rings and endpoints are \
                           startup-time constructions — create them once and let the hot path \
                           feed them through the registry"
                          m v fname))
              | Some _ | None -> ())
          | _ -> ());
          Tast_iterator.default_iterator.expr self e);
    }
  in
  it.expr it body

let check_s5 ~path add structure =
  List.iter
    (fun item ->
      match item.str_desc with
      | Tstr_value (_, vbs) ->
          List.iter
            (fun vb ->
              if is_hot vb then
                let fname =
                  match vb.vb_pat.pat_desc with
                  | Tpat_var (id, _) -> Ident.name id
                  | _ -> "<binding>"
                in
                scan_s5_hot_body ~path ~fname add vb.vb_expr)
            vbs
      | _ -> ())
    structure.str_items

(* --------------------------------- S8: lock and resource discipline *)

(* Two forward dataflow problems over the per-body [Cfg], one per
   function body in the unit:

   - lock balance: on every path out of a body (normal return and the
     exceptional edge alike) every [Mutex.lock m] must be matched by a
     [Mutex.unlock m].  A [raise] executed while a lock is held is the
     classic deadlock-on-error; the fix is [Fun.protect
     ~finally:(fun () -> Mutex.unlock m)] around the critical section
     (the [~finally] thunk is credited as an unlock).  Paths that
     disagree on a balance (conditional locking) join to [Conflict]
     and stay silent: that is a caller protocol, not a provable leak.

   - resource release: a file descriptor bound from [Unix.socket],
     [Unix.openfile] or [Unix.accept] must reach [Unix.close] on every
     path.  Other [Unix.*] calls on the fd (bind/listen/setsockopt/
     read/...) keep it tracked; any other consuming use — returned,
     stored, captured by a closure, passed to a non-[Unix] function —
     is an ownership transfer and silently ends tracking (the new
     owner's contract, not this body's). *)

type s8_lock_state = Bal of int | Conflict

module S8_lock_lattice = struct
  (* Balance per lock name; [Unreached] = no path here yet; a missing
     key means balance 0 (lists are normalized: sorted, no [Bal 0]). *)
  type fact = Unreached | Locks of (string * s8_lock_state) list

  let bottom = Unreached
  let equal = ( = )

  let join a b =
    match (a, b) with
    | Unreached, x | x, Unreached -> x
    | Locks a, Locks b ->
        (* one-sided key: the other path holds it at balance 0 *)
        let rec go a b =
          match (a, b) with
          | [], [] -> []
          | (k, _) :: ra, [] -> (k, Conflict) :: go ra []
          | [], (k, _) :: rb -> (k, Conflict) :: go [] rb
          | (ka, sa) :: ra, (kb, sb) :: rb ->
              if String.compare ka kb < 0 then (ka, Conflict) :: go ra b
              else if String.compare kb ka < 0 then (kb, Conflict) :: go a rb
              else
                let s =
                  match (sa, sb) with Bal x, Bal y when x = y -> Bal x | _ -> Conflict
                in
                (ka, s) :: go ra rb
        in
        Locks (go a b)
end

module S8_lock_flow = Dataflow.Make (S8_lock_lattice)
module S8_res_flow = Dataflow.Make (Callgraph.StrSetLattice)

let s8_first_positional args =
  List.find_map (function Asttypes.Nolabel, (Some _ as a) -> a | _ -> None) args

let s8_finally_arg args =
  List.find_map
    (fun (lbl, a) ->
      match (lbl, a) with Asttypes.Labelled "finally", Some f -> Some f | _ -> None)
    args

(* Render the lock operand as source-ish text ("m", "t.lock") so the
   two sides of a lock/unlock pair match by spelling. *)
let rec s8_lvalue_name e =
  match e.exp_desc with
  | Texp_ident (p, _, _) -> Some (Path.last p)
  | Texp_field (r, _, lbl) ->
      Some
        ((match s8_lvalue_name r with Some b -> b ^ "." | None -> "")
        ^ lbl.Types.lbl_name)
  | _ -> None

let s8_lock_operand args =
  match s8_first_positional args with
  | Some a -> ( match s8_lvalue_name a with Some n -> n | None -> "<mutex>")
  | None -> "<mutex>"

(* Everything a [Fun.protect ~finally] thunk releases, wherever the
   release sits inside the thunk: lock names unlocked, fd idents
   closed. *)
let s8_finally_releases finally =
  let unlocks = ref [] in
  let closes = ref [] in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.exp_desc with
          | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) -> (
              match Callgraph.use_of_path p with
              | Some ("Mutex", "unlock") -> unlocks := s8_lock_operand args :: !unlocks
              | Some (("Unix" | "UnixLabels"), "close") -> (
                  match s8_first_positional args with
                  | Some { exp_desc = Texp_ident (Path.Pident id, _, _); _ } ->
                      closes := id :: !closes
                  | _ -> ())
              | _ -> ())
          | _ -> ());
          Tast_iterator.default_iterator.expr self e);
    }
  in
  it.expr it finally;
  (!unlocks, !closes)

(* A statement's lock effects: [(name, +1|-1)] deltas. *)
let s8_lock_effects stmt =
  match stmt with
  | Cfg.S_bind _ -> []
  | Cfg.S_expr e -> (
      match e.exp_desc with
      | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) -> (
          match Callgraph.use_of_path p with
          | Some ("Mutex", "lock") -> [ (s8_lock_operand args, 1) ]
          | Some ("Mutex", "unlock") -> [ (s8_lock_operand args, -1) ]
          | Some ("Fun", "protect") -> (
              match s8_finally_arg args with
              | Some f -> List.map (fun l -> (l, -1)) (fst (s8_finally_releases f))
              | None -> [])
          | _ -> [])
      | _ -> [])

let s8_lock_transfer fact stmt =
  match fact with
  | S8_lock_lattice.Unreached -> S8_lock_lattice.Unreached
  | S8_lock_lattice.Locks l -> (
      match s8_lock_effects stmt with
      | [] -> fact
      | effects ->
          let l =
            List.fold_left
              (fun l (name, d) ->
                let rec upd = function
                  | [] -> [ (name, Bal d) ]
                  | (k, s) :: rest ->
                      if k = name then
                        (k, match s with Bal n -> Bal (n + d) | Conflict -> Conflict) :: rest
                      else if String.compare k name < 0 then (k, s) :: upd rest
                      else (name, Bal d) :: (k, s) :: rest
                in
                upd l)
              l effects
          in
          S8_lock_lattice.Locks (List.filter (fun (_, s) -> s <> Bal 0) l))

(* Lock names provably held (positive balance on every path). *)
let s8_held = function
  | S8_lock_lattice.Unreached -> []
  | S8_lock_lattice.Locks l ->
      List.filter_map (fun (k, s) -> match s with Bal n when n > 0 -> Some k | _ -> None) l

let s8_acquire rhs =
  match rhs.exp_desc with
  | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, _) -> (
      match Callgraph.use_of_path p with
      | Some (("Unix" | "UnixLabels"), (("socket" | "openfile" | "accept") as fn)) -> Some fn
      | _ -> None)
  | _ -> None

(* A statement's effect on the set of open fds.  [`Transfer] is any
   consuming use that moves ownership out of this body. *)
let s8_res_effect ~is_tracked stmt =
  let tgt e =
    match e.exp_desc with
    | Texp_ident (Path.Pident id, _, _) when is_tracked id -> Some id
    | _ -> None
  in
  let tgts es = List.filter_map tgt es in
  match stmt with
  | Cfg.S_bind (_, id, rhs) when s8_acquire rhs <> None && is_tracked id -> `Acquire id
  | Cfg.S_bind (Cfg.Whole, _, rhs) -> `Transfer (Option.to_list (tgt rhs))
  | Cfg.S_bind (Cfg.Part, _, _) -> `Keep
  | Cfg.S_expr e -> (
      match e.exp_desc with
      | Texp_ident _ | Texp_field _ -> `Keep
      | Texp_setfield (_, _, _, rhs) -> `Transfer (Option.to_list (tgt rhs))
      | Texp_function _ | Texp_lazy _ ->
          `Transfer (Callgraph.captured_targets ~is_target:is_tracked e)
      | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) -> (
          let arg_ids = tgts (List.filter_map (fun (_, a) -> a) args) in
          match Callgraph.use_of_path p with
          | Some (("Unix" | "UnixLabels"), "close") -> (
              match s8_first_positional args with
              | Some { exp_desc = Texp_ident (Path.Pident id, _, _); _ } when is_tracked id ->
                  `Close id
              | _ -> `Keep)
          | Some (("Unix" | "UnixLabels"), _) -> `Keep
          | _ -> if arg_ids = [] then `Keep else `Transfer arg_ids)
      | Texp_apply (_, args) -> `Transfer (tgts (List.filter_map (fun (_, a) -> a) args))
      | _ -> `Transfer (tgts (Cfg.direct_children e)))

let check_s8 ~path add structure =
  let blocks = ref 0 in
  let iters = ref 0 in
  let do_body ~fname body =
    let cfg = Cfg.build body in
    blocks := !blocks + Cfg.n_blocks cfg;
    (* ---------------- lock balance ---------------- *)
    let lock_res =
      S8_lock_flow.solve cfg ~init:(S8_lock_lattice.Locks [])
        ~transfer:s8_lock_transfer
    in
    iters := !iters + lock_res.S8_lock_flow.iterations;
    (* earliest lock site per name, to anchor return-path findings *)
    let first_lock = Hashtbl.create 4 in
    Array.iter
      (fun b ->
        List.iter
          (fun stmt ->
            match stmt with
            | Cfg.S_expr e -> (
                match e.exp_desc with
                | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args)
                  when Callgraph.use_of_path p = Some ("Mutex", "lock") -> (
                    let l = s8_lock_operand args in
                    match Hashtbl.find_opt first_lock l with
                    | Some (loc : Location.t)
                      when loc.loc_start.Lexing.pos_lnum <= e.exp_loc.Location.loc_start.Lexing.pos_lnum
                      ->
                        ()
                    | _ -> Hashtbl.replace first_lock l e.exp_loc)
                | _ -> ())
            | Cfg.S_bind _ -> ())
          b.Cfg.b_stmts)
      cfg.Cfg.cf_blocks;
    (* a raise executed with a positive balance, outside any handler *)
    Array.iter
      (fun b ->
        if b.Cfg.b_handler = cfg.Cfg.cf_exc_exit then begin
          let fact = ref lock_res.S8_lock_flow.facts_in.(b.Cfg.b_id) in
          List.iter
            (fun stmt ->
              (match stmt with
              | Cfg.S_expr e when Cfg.as_raise e <> None ->
                  List.iter
                    (fun l ->
                      add
                        (F.make ~path ~loc:e.exp_loc ~rule:"S8"
                           (Printf.sprintf
                              "raise while mutex `%s` is held in `%s`: release the lock on the \
                               exceptional path too (wrap the critical section in `Fun.protect \
                               ~finally:(fun () -> Mutex.unlock %s)`, or unlock before re-raising)"
                              l fname l)))
                    (s8_held !fact)
              | _ -> ());
              fact := s8_lock_transfer !fact stmt)
            b.Cfg.b_stmts
        end)
      cfg.Cfg.cf_blocks;
    (* locks still held when the body returns normally *)
    List.iter
      (fun l ->
        match Hashtbl.find_opt first_lock l with
        | Some loc ->
            add
              (F.make ~path ~loc ~rule:"S8"
                 (Printf.sprintf
                    "`Mutex.lock %s` in `%s` does not reach `Mutex.unlock` on the normal return \
                     path: every way out of the function must release the lock"
                    l fname))
        | None -> ())
      (s8_held lock_res.S8_lock_flow.facts_in.(cfg.Cfg.cf_exit));
    (* ---------------- resource release ---------------- *)
    let tails = Cfg.tail_idents body [] in
    let tracked = Hashtbl.create 4 in
    let tracked_order = ref [] in
    Array.iter
      (fun b ->
        List.iter
          (fun stmt ->
            match stmt with
            | Cfg.S_bind (_, id, rhs) -> (
                match s8_acquire rhs with
                | Some fn when not (List.exists (Ident.same id) tails) ->
                    let uid = Ident.unique_name id in
                    if not (Hashtbl.mem tracked uid) then begin
                      Hashtbl.add tracked uid ();
                      tracked_order := (uid, Ident.name id, fn, rhs.exp_loc) :: !tracked_order
                    end
                | _ -> ())
            | Cfg.S_expr _ -> ())
          b.Cfg.b_stmts)
      cfg.Cfg.cf_blocks;
    if Hashtbl.length tracked > 0 then begin
      let is_tracked id = Hashtbl.mem tracked (Ident.unique_name id) in
      let transfer fact stmt =
        match s8_res_effect ~is_tracked stmt with
        | `Acquire id -> Callgraph.StrSet.add (Ident.unique_name id) fact
        | `Close id -> Callgraph.StrSet.remove (Ident.unique_name id) fact
        | `Transfer ids ->
            List.fold_left (fun f id -> Callgraph.StrSet.remove (Ident.unique_name id) f) fact ids
        | `Keep -> fact
      in
      let res = S8_res_flow.solve cfg ~init:Callgraph.StrSet.empty ~transfer in
      iters := !iters + res.S8_res_flow.iterations;
      let exc_open = res.S8_res_flow.facts_in.(cfg.Cfg.cf_exc_exit) in
      let ret_open = res.S8_res_flow.facts_in.(cfg.Cfg.cf_exit) in
      List.iter
        (fun (uid, var, fn, loc) ->
          if Callgraph.StrSet.mem uid exc_open then
            add
              (F.make ~path ~loc ~rule:"S8"
                 (Printf.sprintf
                    "`%s` from `Unix.%s` in `%s` leaks when an exception is raised before \
                     `Unix.close`: close it in a `Fun.protect ~finally` (or close before raising)"
                    var fn fname))
          else if Callgraph.StrSet.mem uid ret_open then
            add
              (F.make ~path ~loc ~rule:"S8"
                 (Printf.sprintf
                    "`%s` from `Unix.%s` in `%s` never reaches `Unix.close` on some return path: \
                     close it on every way out (or hand it off explicitly)"
                    var fn fname)))
        (List.rev !tracked_order)
    end
  in
  let do_vb vb =
    let fname =
      match vb.vb_pat.pat_desc with Tpat_var (id, _) -> Ident.name id | _ -> "<binding>"
    in
    let bodies = ref [] in
    let it =
      {
        Tast_iterator.default_iterator with
        expr =
          (fun self e ->
            (match e.exp_desc with
            | Texp_function { cases; _ } ->
                List.iter
                  (fun c ->
                    if not (Callgraph.is_function c.c_rhs) then bodies := c.c_rhs :: !bodies)
                  cases
            | _ -> ());
            Tast_iterator.default_iterator.expr self e);
      }
    in
    it.expr it vb.vb_expr;
    if not (Callgraph.is_function vb.vb_expr) then bodies := vb.vb_expr :: !bodies;
    List.iter (do_body ~fname) (List.rev !bodies)
  in
  let rec do_str str =
    List.iter
      (fun item ->
        match item.str_desc with
        | Tstr_value (_, vbs) -> List.iter do_vb vbs
        | Tstr_module mb -> do_mod mb
        | Tstr_recmodule mbs -> List.iter do_mod mbs
        | _ -> ())
      str.str_items
  and do_mod mb =
    match Callgraph.structure_of mb.mb_expr with Some str -> do_str str | None -> ()
  in
  do_str structure;
  (!blocks, !iters)

(* ----------------------------------------------- S4: numeric stability *)

(* In any loop body, [acc := !acc +. e] and [r.f <- r.f +. e] on a
   float-typed, cost-named accumulator lose low-order bits one
   request at a time; route them through [Stats.kahan_add] /
   [Cost_model.add] so the project-wide tolerance keeps meaning. *)

let costish name =
  List.exists
    (Callgraph.contains (String.lowercase_ascii name))
    [ "cost"; "total"; "sum"; "acc"; "caching"; "transfer"; "budget" ]

let s4_message name =
  Printf.sprintf
    "float cost accumulator `%s` folded with bare `+.` in a loop drops low-order bits: \
     accumulate via `Stats.kahan_add` or `Cost_model.add`"
    name

let scan_s4_loop_body ~path add body =
  let stdlib op p vd = Callgraph.definition p vd = ("Stdlib", op) in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.exp_desc with
          (* acc := !acc +. e *)
          | Texp_apply
              ( { exp_desc = Texp_ident (pset, _, vset); _ },
                [ (_, Some { exp_desc = Texp_ident (target, _, _); _ }); (_, Some rhs) ] )
            when stdlib ":=" pset vset -> (
              let name = Path.last target in
              match rhs.exp_desc with
              | Texp_apply ({ exp_desc = Texp_ident (pplus, _, vplus); _ }, operands)
                when stdlib "+." pplus vplus
                     && is_float_type rhs.exp_type
                     && costish name
                     && List.exists
                          (fun (_, o) ->
                            match o with
                            | Some
                                {
                                  exp_desc =
                                    Texp_apply
                                      ( { exp_desc = Texp_ident (pbang, _, vbang); _ },
                                        [ (_, Some { exp_desc = Texp_ident (src, _, _); _ }) ] );
                                  _;
                                } ->
                                stdlib "!" pbang vbang && Path.same src target
                            | _ -> false)
                          operands ->
                  add (F.make ~path ~loc:e.exp_loc ~rule:"S4" (s4_message name))
              | _ -> ())
          (* r.f <- r.f +. e *)
          | Texp_setfield (_, _, label, rhs)
            when is_float_type label.Types.lbl_arg && costish label.Types.lbl_name -> (
              match rhs.exp_desc with
              | Texp_apply ({ exp_desc = Texp_ident (pplus, _, vplus); _ }, operands)
                when stdlib "+." pplus vplus
                     && List.exists
                          (fun (_, o) ->
                            match o with
                            | Some { exp_desc = Texp_field (_, _, label'); _ } ->
                                label'.Types.lbl_name = label.Types.lbl_name
                            | _ -> false)
                          operands ->
                  add (F.make ~path ~loc:e.exp_loc ~rule:"S4" (s4_message label.Types.lbl_name))
              | _ -> ())
          | _ -> ());
          Tast_iterator.default_iterator.expr self e);
    }
  in
  it.expr it body

let check_s4 ~path add structure =
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.exp_desc with
          | Texp_for (_, _, _, _, _, body) -> scan_s4_loop_body ~path add body
          | Texp_while (_, body) -> scan_s4_loop_body ~path add body
          | _ -> ());
          Tast_iterator.default_iterator.expr self e);
    }
  in
  it.structure it structure

(* ------------------------- R1-R4: determinism, floats, totality, compare *)

(* Each R rule classifies a value reference by where the value is
   defined ([Callgraph.definition]), never by how the source spelled
   it, so a module alias, an [open] or a [let module] hides nothing. *)

let rng_module_file = "prelude/rng.ml"

let r3_banned =
  [
    (("Stdlib__List", "hd"), "partial `List.hd`: match on the list (the empty case is reachable)");
    (("Stdlib__List", "nth"), "partial `List.nth`: use `List.nth_opt` or restructure");
    (("Stdlib__Option", "get"), "partial `Option.get`: match on the option");
    ( ("Stdlib__Array", "unsafe_get"),
      "`Array.unsafe_get` skips bounds checking: index proofs belong in code review, not trust" );
    (("Stdlib", "failwith"), "bare `failwith`: raise a dedicated exception callers can catch");
  ]

let comparison_heads = [ "="; "<>"; "compare" ]
let r2_heads = comparison_heads @ [ "min"; "max" ]

(* Cost accessors whose results are schedule costs: comparing them
   exactly is wrong whichever module they came from. *)
let cost_names = [ "cost"; "caching_cost"; "transfer_cost"; "total_cost"; "opt_cost" ]

(* int-valued escapes: float math inside these never reaches the
   comparison as a float *)
let int_escapes =
  [
    ("Stdlib", "int_of_float"); ("Stdlib", "truncate"); ("Stdlib__Int", "of_float");
    ("Stdlib__Float", "to_int");
  ]

let float_ops = [ "+."; "-."; "*."; "/."; "~-." ]

(* Is [e] a cost?  R2 asks this of the float-typed arguments of a
   comparison: float literals, float arithmetic, [Cost_model] values,
   cost accessors and fields, and anything built from one. *)
let rec cost_valued e =
  List.exists
    (function Texp_constraint cty, _, _ -> is_float_type cty.ctyp_type | _ -> false)
    e.exp_extra
  ||
  match e.exp_desc with
  | Texp_constant (Const_float _) -> true
  | Texp_ident (p, _, vd) -> (
      List.mem (Path.last p) cost_names
      ||
      match p with
      | Path.Pdot _ -> Callgraph.strip_mangling (fst (Callgraph.definition p vd)) = "Cost_model"
      | _ -> false)
  | Texp_field (_, _, lbl) -> List.mem lbl.Types.lbl_name cost_names
  | Texp_apply (head, args) ->
      let d =
        match head.exp_desc with
        | Texp_ident (p, _, vd) -> Callgraph.definition p vd
        | _ -> ("", "")
      in
      (not (List.mem d int_escapes))
      && ((fst d = "Stdlib" && List.mem (snd d) float_ops)
         || cost_valued head
         || List.exists (function _, Some a -> cost_valued a | _ -> false) args)
  | Texp_ifthenelse (_, e, None) -> cost_valued e
  | Texp_ifthenelse (_, e1, Some e2) -> cost_valued e1 || cost_valued e2
  | _ -> false

(* Does [ty] mention [Schedule.t] or [Request.t], under any dune
   [lib__] prefix? *)
let mentions_schedule_type ty =
  let seen = Hashtbl.create 8 in
  let rec go ty =
    if not (Hashtbl.mem seen (Types.get_id ty)) then begin
      Hashtbl.add seen (Types.get_id ty) ();
      (match Types.get_desc ty with
      | Types.Tconstr (Path.Pdot (m, "t"), _, _)
        when List.mem (unit_of_module_path m) [ Some "Schedule"; Some "Request" ] ->
          raise Exit
      | _ -> ());
      Btype.iter_type_expr go ty
    end
  in
  match go ty with () -> false | exception Exit -> true

(* a path as findings print it: [Random.int], not [Stdlib.Random.int] *)
let written p =
  let n = Path.name p in
  if Callgraph.has_prefix "Stdlib." n then String.sub n 7 (String.length n - 7) else n

let check_r ~path add structure =
  let in_rng_module = Filename.check_suffix (F.normalize_path path) rng_module_file in
  let reference ~loc p (lid : Longident.t) vd =
    let d = Callgraph.definition p vd in
    if Callgraph.ambient_randomness d && not in_rng_module then
      add
        (F.make ~path ~loc ~rule:"R1"
           (match (lid, p) with
           | Longident.Lident name, Path.Pdot _ ->
               Printf.sprintf
                 "`%s` reaches `Random.%s` through an `open`: draw from `Dcache_prelude.Rng` \
                  instead"
                 name name
           | _ ->
               Printf.sprintf
                 "`%s` breaks seed-reproducibility: draw from `Dcache_prelude.Rng` instead"
                 (written p)));
    if Callgraph.unordered_traversal d then
      add
        (F.make ~path ~loc ~rule:"R1"
           (Printf.sprintf
              "`%s` visits bindings in nondeterministic order: sort the result before it feeds \
               any aggregate"
              (written p)));
    match List.assoc_opt d r3_banned with
    | Some message -> add (F.make ~path ~loc ~rule:"R3" message)
    | None -> ()
  in
  let comparison ~loc (unit, op) args =
    if unit = "Stdlib" && List.mem op r2_heads then begin
      let positional = List.filter_map (function Asttypes.Nolabel, a -> a | _ -> None) args in
      if List.exists (fun a -> is_float_type a.exp_type && cost_valued a) positional then
        add
          (F.make ~path ~loc ~rule:"R2"
             (Printf.sprintf
                "exact `%s` on a float cost: equal costs differ by ulps across recurrence paths; \
                 use `Float_cmp.%s`"
                op
                (match op with
                | "=" | "<>" -> "approx_eq"
                | "compare" -> "compare_approx"
                | _ -> "approx_le / explicit tie-break")));
      if
        List.mem op comparison_heads
        && List.exists (fun a -> mentions_schedule_type a.exp_type) positional
      then
        add
          (F.make ~path ~loc ~rule:"R4"
             (Printf.sprintf
                "polymorphic `%s` on a Schedule.t/Request.t value is tolerance-blind on float \
                 fields: compare costs via `Float_cmp` or use the module's own comparator"
                op))
    end
  in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.exp_desc with
          | Texp_ident (p, lid, vd) -> reference ~loc:e.exp_loc p lid.txt vd
          | Texp_apply ({ exp_desc = Texp_ident (p, _, vd); _ }, args) ->
              comparison ~loc:e.exp_loc (Callgraph.definition p vd) args
          | _ -> ());
          Tast_iterator.default_iterator.expr self e);
    }
  in
  it.structure it structure

(* ------------------------------------------------------- uses / exports *)

(* Every value the unit references, keyed by its defining unit
   (unmangled) and name: [G.make] after [module G =
   Dcache_spacetime.Graph] counts as a use of [Graph.make], as the S3
   liveness graph needs. *)
let collect_uses structure =
  let uses = ref [] in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.exp_desc with
          | Texp_ident (p, _, vd) ->
              let unit, name = Callgraph.definition p vd in
              uses := (Callgraph.strip_mangling unit, name) :: !uses
          | _ -> ());
          Tast_iterator.default_iterator.expr self e);
    }
  in
  it.structure it structure;
  List.sort_uniq compare !uses

let exports_of_interface ~mli_path signature =
  List.filter_map
    (fun (item : signature_item) ->
      match item.sig_desc with
      | Tsig_value vd ->
          Some
            ( Ident.name vd.val_id,
              vd.val_loc.Location.loc_start.Lexing.pos_lnum,
              mli_path,
              doc_of_attrs vd.val_attributes )
      | _ -> None)
    signature.sig_items

(* --------------------------------------------------------- entry points *)

(* S4 is skipped inside the module that implements the sanctioned
   accumulators. *)
let s4_exempt path = Filename.check_suffix (F.normalize_path path) "prelude/stats.ml"

let check_implementation ~ml_path structure =
  let findings = ref [] in
  let add f = findings := f :: !findings in
  check_r ~path:ml_path add structure;
  check_s5 ~path:ml_path add structure;
  let s8_blocks, s8_iters = check_s8 ~path:ml_path add structure in
  if not (s4_exempt ml_path) then check_s4 ~path:ml_path add structure;
  (List.sort_uniq F.compare !findings, collect_uses structure, s8_blocks, s8_iters)
