open Dcache_core
module Audit = Dcache_obs.Audit

type t = {
  inc : Online_sc.Incremental.t;
  dp : Streaming_dp.t;
  audit : Audit.t;
  inflate : float;
  on_window : (Audit.window -> unit) option;
  costs : float array;
      (* the latest (inflated online, optimum) pair: the two costs
         cross from Online_sc and Streaming_dp to Audit unboxed *)
}

type report = {
  requests : int;
  online_cost : float;
  opt_cost : float;
  final_ratio : float;
  windows : int;
  violations : int;
  witnesses : Audit.witness list;
}

let create ?window_size ?bound ?item ?epoch_size ?(inflate = 1.0) ?on_window model ~m =
  if not (inflate > 0.0) then invalid_arg "Auditor.create: inflate must be positive";
  {
    inc = Online_sc.Incremental.create ?epoch_size model ~m;
    dp = Streaming_dp.create model ~m;
    audit = Audit.create ?window_size ?bound ?item ();
    inflate;
    on_window;
    costs = Array.make 2 0.0;
  }

let fire_window t closed =
  match t.on_window with
  | Some f when closed -> (
      match Audit.last_window t.audit with Some w -> f w | None -> ())
  | _ -> ()

let feed t ~server ~time =
  Online_sc.Incremental.feed t.inc ~server ~time;
  Streaming_dp.push t.dp ~server ~time;
  let costs = t.costs in
  Online_sc.Incremental.cost_into t.inc costs 0;
  costs.(0) <- t.inflate *. costs.(0);
  Streaming_dp.cost_into t.dp costs 1;
  let closed = Audit.observe_cells t.audit costs in
  fire_window t closed

let audit t = t.audit
let online_cost_so_far t = Online_sc.Incremental.cost_so_far t.inc
let opt_cost_so_far t = Streaming_dp.cost t.dp

let finish t =
  let closed = Audit.flush t.audit in
  fire_window t closed;
  let online_cost = (Online_sc.Incremental.finish t.inc).Online_sc.total_cost in
  let opt_cost = Streaming_dp.cost t.dp in
  {
    requests = Audit.n t.audit;
    online_cost;
    opt_cost;
    final_ratio = Audit.ratio ~online:(t.inflate *. online_cost) ~opt:opt_cost;
    windows = Audit.windows_closed t.audit;
    violations = Audit.violations t.audit;
    witnesses = Audit.witnesses t.audit;
  }
