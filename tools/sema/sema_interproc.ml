(* The interprocedural rules, computed from [Summary] over the cached
   per-unit graphs:

   - S2 (v2, exception flow): an exception that may escape a public
     lib/core / lib/baselines value — raised locally outside any
     handler, or propagated through a chain of unguarded calls — must
     be named in an [@raise] doc clause of the .mli val.  The may-raise
     sets are a bottom-up fixpoint over the call graph; findings carry
     the witness chain ("via A -> B") down to the raise site.
   - S6 (purity): a lib/workload generator — a function threading an
     [Rng.t], a [~seed], or named [generate*] — must be a
     deterministic function of (seed, spec) transitively through its
     callees.
   - S7 (domain-safety): a task passed to [Pool.parallel_init] /
     [parallel_map] that mutates captured or module-level state
     without a [Mutex] races across domains.

   Unknown callees contribute *no* exceptions to a may-raise set: S2
   under-approximates rather than spam. *)

module F = Report_finding
module C = Callgraph
module S = Summary

type export = {
  ex_key : C.key;  (* (unit module, value) *)
  ex_mli_line : int;
  ex_mli_path : string;
  ex_doc : string;
}

(* Witness chains rendered as SARIF steps: one hop per call-graph key,
   anchored at each function's definition. *)
let chain_steps summary ~text keys =
  List.filter_map
    (fun k ->
      match Hashtbl.find_opt summary.S.entries k with
      | Some e ->
          Some (F.step ~path:e.S.e_node.C.nd_path ~line:e.S.e_node.C.nd_line (text k))
      | None -> None)
    keys

(* --------------------------------------------- interprocedural closures *)

(* May-raise sets: a bottom-up boolean-per-exception fixpoint.  A
   node's set is its unguarded local raises plus the union of the sets
   of everything it calls from unguarded blocks.  Guarded calls are
   excluded by construction (the per-unit CFG already subtracted
   them), so a [try ... with _ -> ...] around a call really does stop
   propagation here. *)
let exn_closure summary =
  let tbl = Hashtbl.create 256 in
  List.iter
    (fun k ->
      match Hashtbl.find_opt summary.S.entries k with
      | None -> ()
      | Some e ->
          let local =
            List.fold_left
              (fun acc (exn, _, _) -> C.StrSet.add exn acc)
              C.StrSet.empty e.S.e_node.C.nd_raises
          in
          Hashtbl.replace tbl k local)
    summary.S.order;
  let rounds = ref 0 in
  let changed = ref true in
  while !changed do
    changed := false;
    incr rounds;
    List.iter
      (fun k ->
        match Hashtbl.find_opt summary.S.entries k with
        | None -> ()
        | Some e ->
            let cur =
              match Hashtbl.find_opt tbl k with Some s -> s | None -> C.StrSet.empty
            in
            let nf =
              List.fold_left
                (fun acc alts ->
                  match S.resolve summary alts with
                  | Some k' -> (
                      match Hashtbl.find_opt tbl k' with
                      | Some s -> C.StrSet.union acc s
                      | None -> acc)
                  | None -> acc (* unknown callee: contributes nothing *))
                cur e.S.e_node.C.nd_unguarded
            in
            if not (C.StrSet.equal nf cur) then begin
              Hashtbl.replace tbl k nf;
              changed := true
            end)
      summary.S.order
  done;
  (tbl, !rounds)

(* ---------------------------------------------------------------- S2 v2 *)

(* any @raise clause plus the exception's name anywhere in the doc:
   formats vary *)
let documents doc exn = C.contains doc "@raise" && C.contains doc exn

(* Shortest unguarded-call chain from [root] to a function that
   locally raises [exn]; BFS in recorded-edge order (deterministic),
   pruned to callees whose may-raise set still contains [exn].
   Returns the chain plus the raise site. *)
let exn_witness summary ~exn_may ~root exn =
  let may k =
    match Hashtbl.find_opt exn_may k with
    | Some s -> C.StrSet.mem exn s
    | None -> false
  in
  let seen = Hashtbl.create 64 in
  let rec bfs = function
    | [] -> None
    | (key, path) :: rest ->
        if Hashtbl.mem seen key then bfs rest
        else begin
          Hashtbl.replace seen key ();
          match Hashtbl.find_opt summary.S.entries key with
          | None -> bfs rest
          | Some e -> (
              let path = key :: path in
              match
                List.find_opt (fun (x, (_ : int), (_ : int)) -> x = exn) e.S.e_node.C.nd_raises
              with
              | Some (_, line, _) -> Some (List.rev path, e.S.e_node.C.nd_path, line)
              | None ->
                  let next =
                    List.filter_map
                      (fun alts ->
                        match S.resolve summary alts with
                        | Some k' when may k' -> Some (k', path)
                        | _ -> None)
                      e.S.e_node.C.nd_unguarded
                  in
                  bfs (rest @ next))
        end
  in
  bfs [ (root, []) ]

let s2v2 summary ~exn_may exports =
  List.concat_map
    (fun ex ->
      let may =
        match Hashtbl.find_opt exn_may ex.ex_key with
        | Some s -> s
        | None -> C.StrSet.empty
      in
      C.StrSet.elements may
      |> List.filter_map (fun exn ->
             if documents ex.ex_doc exn then None
             else
               let chain, raise_path, raise_line =
                 match exn_witness summary ~exn_may ~root:ex.ex_key exn with
                 | Some w -> w
                 | None -> ([ ex.ex_key ], ex.ex_mli_path, ex.ex_mli_line)
               in
               let via =
                 match chain with
                 | [] | [ _ ] -> ""
                 | _ -> Printf.sprintf " (via %s)" (String.concat " -> " (List.map S.pp_key chain))
               in
               let flow =
                 F.step ~path:ex.ex_mli_path ~line:ex.ex_mli_line
                   (Printf.sprintf "public contract `val %s`" (snd ex.ex_key))
                 :: chain_steps summary chain
                      ~text:(fun k -> Printf.sprintf "`%s` may let `%s` escape" (S.pp_key k) exn)
                 @ [
                     F.step ~path:raise_path ~line:raise_line
                       (Printf.sprintf "`%s` raised here" exn);
                   ]
               in
               Some
                 (F.v ~path:ex.ex_mli_path ~line:ex.ex_mli_line ~col:0 ~rule:"S2" ~flow
                    (Printf.sprintf
                       "`%s` can escape `val %s`%s but its doc has no `@raise %s`: document it \
                        or return a `result`"
                       exn (snd ex.ex_key) via exn))))
    exports

(* ------------------------------------------------------------------- S6 *)

(* severity-ordered: the first dirty fact names the finding *)
let s6_breaches =
  [
    ((fun f -> f.C.f_random), "draws from ambient `Stdlib.Random`");
    ((fun f -> f.C.f_unix), "performs `Unix` I/O");
    ((fun f -> f.C.f_sys), "reads ambient `Sys` state");
    ((fun f -> f.C.f_unordered), "traverses a `Hashtbl` in unspecified order");
    ((fun f -> f.C.f_gwrite), "writes module-level mutable state");
    ((fun f -> f.C.f_gread), "reads module-level mutable state");
  ]

let s6 summary (g : C.unit_graph) =
  List.filter_map
    (fun (n : C.node) ->
      if not n.C.nd_candidate then None
      else
        match S.find summary [ n.C.nd_key ] with
        | None -> None
        | Some e ->
            List.find_map
              (fun (pred, what) ->
                if not (pred e.S.e_facts) then None
                else
                  let keys = S.witness_keys summary ~root:n.C.nd_key ~pred in
                  let chain = String.concat " -> " (List.map S.pp_key keys) in
                  let flow =
                    chain_steps summary keys
                      ~text:(fun k -> Printf.sprintf "`%s` %s" (S.pp_key k) what)
                  in
                  Some
                    (F.v ~path:g.C.ug_path ~line:n.C.nd_line ~col:0 ~rule:"S6" ~flow
                       (Printf.sprintf
                          "generator `%s` must be a deterministic function of (seed, spec) but \
                           %s (via %s): thread the effect through `Rng`/the spec instead"
                          (snd n.C.nd_key) what chain)))
              s6_breaches)
    g.C.ug_nodes

(* ------------------------------------------------------------------- S7 *)

let racy_callee summary ~guarded calls =
  if guarded then None
  else
    List.find_map
      (fun alts ->
        match S.find summary alts with
        | Some e when e.S.e_facts.C.f_gwrite && not e.S.e_facts.C.f_mutex ->
            Some
              ( S.pp_key e.S.e_node.C.nd_key,
                S.witness_keys summary ~root:e.S.e_node.C.nd_key ~pred:(fun f -> f.C.f_gwrite) )
        | _ -> None)
      calls

let s7 summary (g : C.unit_graph) =
  List.filter_map
    (fun (site : C.pool_site) ->
      let mk flow fmt =
        Printf.ksprintf
          (fun msg ->
            F.v ~path:g.C.ug_path ~line:site.C.ps_line ~col:site.C.ps_col ~rule:"S7" ~flow msg)
          fmt
      in
      let callee_flow keys =
        chain_steps summary keys
          ~text:(fun k ->
            Printf.sprintf "`%s` writes shared mutable state without a `Mutex`" (S.pp_key k))
      in
      match site.C.ps_task with
      | C.Closure { tk_writes = w :: _; tk_mutex = false; _ } ->
          Some
            (mk []
               "task closure passed to `Pool.%s` mutates captured %s `%s` without a `Mutex`: \
                shared mutable state races across domains — use `Atomic`, give each task its own \
                slot, or guard the write with a lock"
               site.C.ps_fn w.C.cap_kind w.C.cap_name)
      | C.Closure { tk_writes = _; tk_mutex; tk_calls } -> (
          match racy_callee summary ~guarded:tk_mutex tk_calls with
          | Some (callee, keys) ->
              Some
                (mk (callee_flow keys)
                   "task closure passed to `Pool.%s` calls `%s`, which writes module-level \
                    mutable state without a `Mutex` (via %s): shared writes race across domains"
                   site.C.ps_fn callee
                   (String.concat " -> " (List.map S.pp_key keys)))
          | None -> None)
      | C.Named alts -> (
          match racy_callee summary ~guarded:false [ alts ] with
          | Some (callee, keys) ->
              Some
                (mk (callee_flow keys)
                   "task `%s` passed to `Pool.%s` writes module-level mutable state without a \
                    `Mutex` (via %s): shared writes race across domains"
                   callee site.C.ps_fn
                   (String.concat " -> " (List.map S.pp_key keys)))
          | None -> None))
    g.C.ug_pool_sites

(* ------------------------------------------------------------------ all *)

(* the findings plus the sweeps the may-raise fixpoint took *)
let findings summary ~exports graphs =
  let exn_may, exn_rounds = exn_closure summary in
  let per_unit = List.concat_map (fun g -> s6 summary g @ s7 summary g) graphs in
  (per_unit @ s2v2 summary ~exn_may exports, exn_rounds)
