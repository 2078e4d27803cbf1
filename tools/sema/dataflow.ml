(* Generic monotone-framework solver over [Cfg].

   [Make (L)] instantiates a forward dataflow solver for the
   join-semilattice [L].  The solver sweeps blocks round-robin in id
   order (deterministic, like [Summary.build]'s worklist) until no
   out-fact changes; [iterations] counts whole sweeps, so a blow-up in
   fixpoint convergence is visible in `dcache_sema --stats`.

   Facts flow along both normal and exceptional edges: a handler (or
   the exceptional exit) must see the facts that hold at each raising
   point inside its protected region. *)

module type LATTICE = sig
  type fact

  val bottom : fact
  val equal : fact -> fact -> bool
  val join : fact -> fact -> fact
end

module Make (L : LATTICE) = struct
  type result = {
    facts_in : L.fact array;  (* per block: fact at its start *)
    facts_out : L.fact array;  (* per block: fact at its end *)
    iterations : int;
  }

  let solve cfg ~init ~transfer =
    let n = Cfg.n_blocks cfg in
    let facts_in = Array.make n L.bottom in
    let facts_out = Array.make n L.bottom in
    let succs b = List.sort_uniq compare (b.Cfg.b_succ @ b.Cfg.b_exc) in
    let preds = Array.make n [] in
    Array.iter
      (fun b -> List.iter (fun s -> preds.(s) <- b.Cfg.b_id :: preds.(s)) (succs b))
      cfg.Cfg.cf_blocks;
    Array.iteri (fun i l -> preds.(i) <- List.rev l) preds;
    let iterations = ref 0 in
    let changed = ref true in
    while !changed do
      changed := false;
      incr iterations;
      for i = 0 to n - 1 do
        let incoming =
          List.fold_left
            (fun acc j -> L.join acc facts_out.(j))
            (if i = cfg.Cfg.cf_entry then init else L.bottom)
            preds.(i)
        in
        facts_in.(i) <- incoming;
        let out = List.fold_left transfer incoming cfg.Cfg.cf_blocks.(i).Cfg.b_stmts in
        if not (L.equal out facts_out.(i)) then begin
          facts_out.(i) <- out;
          changed := true
        end
      done
    done;
    { facts_in; facts_out; iterations = !iterations }
end
