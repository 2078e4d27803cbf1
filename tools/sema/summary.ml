(* Whole-program summaries: the transitive closure of each node's
   facts over the call graph.

   The join is a boolean-lattice worklist fixpoint — facts only ever
   gain bits, so iterating to stability handles mutually recursive
   SCCs without computing them explicitly.  Iteration walks a sorted
   key list (never Hashtbl order) so the result is bit-identical
   whatever order the cmts were produced or scanned in. *)

module C = Callgraph

type entry = {
  e_node : C.node;
  e_callees : C.key list list;
  mutable e_facts : C.facts;  (* transitive *)
}

type t = {
  entries : (C.key, entry) Hashtbl.t;
  order : C.key list;
  mutable s_rounds : int;  (* worklist sweeps to reach the facts fixpoint *)
}

let find t alternatives = List.find_map (fun k -> Hashtbl.find_opt t.entries k) alternatives

(* key collisions (same (module, name) in two units, e.g. the [main]
   of several executables) merge conservatively: facts, edges and
   raises union *)
let merge a b =
  {
    e_node =
      {
        a.e_node with
        C.nd_facts = C.union a.e_node.C.nd_facts b.C.nd_facts;
        nd_candidate = a.e_node.C.nd_candidate || b.C.nd_candidate;
        nd_raises = a.e_node.C.nd_raises @ b.C.nd_raises;
        nd_unguarded = a.e_node.C.nd_unguarded @ b.C.nd_unguarded;
      };
    e_callees = a.e_callees @ b.C.nd_calls;
    e_facts = C.no_facts;
  }

let build graphs =
  let entries = Hashtbl.create 1024 in
  List.iter
    (fun g ->
      List.iter
        (fun (n : C.node) ->
          let e =
            match Hashtbl.find_opt entries n.C.nd_key with
            | Some prev -> merge prev n
            | None -> { e_node = n; e_callees = n.C.nd_calls; e_facts = C.no_facts }
          in
          Hashtbl.replace entries n.C.nd_key e)
        g.C.ug_nodes)
    graphs;
  let order =
    List.concat_map (fun g -> List.map (fun (n : C.node) -> n.C.nd_key) g.C.ug_nodes) graphs
    |> List.sort_uniq compare
  in
  let t = { entries; order; s_rounds = 0 } in
  List.iter
    (fun k -> match Hashtbl.find_opt entries k with
      | Some e -> e.e_facts <- e.e_node.C.nd_facts
      | None -> ())
    order;
  let changed = ref true in
  while !changed do
    changed := false;
    t.s_rounds <- t.s_rounds + 1;
    List.iter
      (fun k ->
        match Hashtbl.find_opt entries k with
        | None -> ()
        | Some e ->
            let nf =
              List.fold_left
                (fun acc alts ->
                  match find t alts with None -> acc | Some ce -> C.union acc ce.e_facts)
                e.e_facts e.e_callees
            in
            if nf <> e.e_facts then begin
              e.e_facts <- nf;
              changed := true
            end)
      t.order
  done;
  t

(* ----------------------------------------------------------- structure *)

(* Tarjan SCC count over the resolved call graph, visiting roots and
   edges in recorded (sorted/syntactic) order — a structural stat for
   `--stats`, also pinning that mutual recursion stays a join-friendly
   shape rather than a special case. *)
let scc_count t =
  let index = Hashtbl.create 256 in
  let low = Hashtbl.create 256 in
  let onstack = Hashtbl.create 256 in
  let stack = ref [] in
  let next = ref 0 in
  let count = ref 0 in
  let rec strong k =
    Hashtbl.replace index k !next;
    Hashtbl.replace low k !next;
    incr next;
    stack := k :: !stack;
    Hashtbl.replace onstack k ();
    (match Hashtbl.find_opt t.entries k with
    | None -> ()
    | Some e ->
        List.iter
          (fun alts ->
            match List.find_opt (fun k' -> Hashtbl.mem t.entries k') alts with
            | None -> ()
            | Some k' ->
                if not (Hashtbl.mem index k') then begin
                  strong k';
                  Hashtbl.replace low k (min (Hashtbl.find low k) (Hashtbl.find low k'))
                end
                else if Hashtbl.mem onstack k' then
                  Hashtbl.replace low k (min (Hashtbl.find low k) (Hashtbl.find index k')))
          e.e_callees);
    if Hashtbl.find low k = Hashtbl.find index k then begin
      incr count;
      let rec pop () =
        match !stack with
        | [] -> ()
        | k' :: rest ->
            stack := rest;
            Hashtbl.remove onstack k';
            if compare k' k <> 0 then pop ()
      in
      pop ()
    end
  in
  List.iter
    (fun k -> if Hashtbl.mem t.entries k && not (Hashtbl.mem index k) then strong k)
    t.order;
  !count

(* ------------------------------------------------------------- witnesses *)

let pp_key (m, v) = m ^ "." ^ v

(* Shortest call chain from [root] to a node whose *local* facts
   satisfy [pred]: BFS in recorded-edge order, which is syntactic and
   therefore deterministic. *)
let witness_keys t ~root ~pred =
  let seen = Hashtbl.create 64 in
  let rec bfs = function
    | [] -> None
    | (key, path) :: rest -> (
        if Hashtbl.mem seen key then bfs rest
        else begin
          Hashtbl.replace seen key ();
          match Hashtbl.find_opt t.entries key with
          | None -> bfs rest
          | Some e ->
              let path = key :: path in
              if pred e.e_node.C.nd_facts then Some (List.rev path)
              else
                let next =
                  List.filter_map
                    (fun alts ->
                      List.find_opt (fun k -> Hashtbl.mem t.entries k) alts
                      |> Option.map (fun k -> (k, path)))
                    e.e_callees
                in
                bfs (rest @ next)
        end)
  in
  match bfs [ (root, []) ] with Some keys -> keys | None -> [ root ]
