open Dcache_core

(* Merge touching or overlapping intervals of one server. *)
let merge_intervals spans =
  spans
  |> List.map (fun (a, b) -> Dcache_prelude.Interval.make ~lo:a ~hi:b)
  |> Dcache_prelude.Interval.merge
  |> List.map (fun span -> (span.Dcache_prelude.Interval.lo, span.Dcache_prelude.Interval.hi))

let make schedule =
  let module M = struct
    type t = {
      intervals : (float * float) list array;  (* merged, per server *)
      serves : Policy.action list array;  (* per request index, precomputed *)
      provisions : (float * int) list array;
          (* per destination: non-serving transfers (time, src) —
             pre-positioning moves a heterogeneous-optimal schedule may
             contain *)
    }

    let name = "replay"

    let covered intervals server time =
      List.exists
        (fun (a, b) ->
          Dcache_prelude.Float_cmp.approx_le a time && Dcache_prelude.Float_cmp.approx_le time b)
        intervals.(server)

    let starts_at intervals server time =
      List.exists (fun (a, _) -> Dcache_prelude.Float_cmp.approx_eq a time) intervals.(server)

    let create _model seq =
      let m = Sequence.m seq and n = Sequence.n seq in
      let raw = Array.make m [] in
      List.iter
        (fun c ->
          raw.(c.Schedule.server) <-
            (c.Schedule.from_time, c.Schedule.to_time) :: raw.(c.Schedule.server))
        (Schedule.caches schedule);
      let intervals = Array.map merge_intervals raw in
      let is_serving tr =
        let rec scan i =
          i <= n
          && ((Sequence.server seq i = tr.Schedule.dst
              && Dcache_prelude.Float_cmp.approx_eq (Sequence.time seq i) tr.Schedule.time)
             || scan (i + 1))
        in
        scan 1
      in
      (* [Schedule.transfers] builds a fresh list per call: once here *)
      let transfers = Schedule.transfers schedule in
      let provisions = Array.make m [] in
      List.iter
        (fun tr ->
          match tr.Schedule.src with
          | Schedule.From_server src when not (is_serving tr) ->
              provisions.(tr.Schedule.dst) <- (tr.Schedule.time, src) :: provisions.(tr.Schedule.dst)
          | Schedule.From_server _ | Schedule.From_external -> ())
        transfers;
      let serve_of i =
        let s = Sequence.server seq i and ti = Sequence.time seq i in
        let tr =
          List.find_opt
            (fun tr ->
              tr.Schedule.dst = s && Dcache_prelude.Float_cmp.approx_eq tr.Schedule.time ti)
            transfers
        in
        (* an incoming transfer takes precedence: a cache interval
           starting exactly at t_i is materialised by that transfer *)
        match tr with
        | Some { Schedule.src = From_server src; _ } ->
            if starts_at intervals s ti then [ Policy.Fetch { src } ]
            else [ Policy.Fetch_and_discard { src } ]
        | Some { Schedule.src = From_external; _ } ->
            if starts_at intervals s ti then [ Policy.Upload ] else [ Policy.Upload_and_discard ]
        | None ->
            if covered intervals s ti then [ Policy.Serve_from_cache ]
            else [] (* infeasible schedule: the engine will report it *)
      in
      {
        intervals;
        serves = Array.init (n + 1) (fun i -> if i = 0 then [] else serve_of i);
        provisions;
      }

    let init t _view =
      (* Provision timers are armed first: with FIFO tie-breaking they
         fire before any drop timer at the same instant, so a source
         whose interval ends exactly then still holds its copy.  One
         drop timer per merged interval end; merging guarantees each
         armed end is a real drop point, so none is ever stale. *)
      let actions = ref [] in
      Array.iteri
        (fun server spans ->
          List.iter
            (fun (at, _src) -> actions := Policy.Set_timer { server; at } :: !actions)
            spans)
        t.provisions;
      Array.iteri
        (fun server spans ->
          List.iter (fun (_, b) -> actions := Policy.Set_timer { server; at = b } :: !actions) spans)
        t.intervals;
      List.rev !actions

    let on_request t _view ~index ~server:_ = t.serves.(index)

    let on_timer t (view : Policy.view) ~server =
      match
        List.find_opt
          (fun (at, _) -> Dcache_prelude.Float_cmp.approx_eq at view.now)
          t.provisions.(server)
      with
      | Some (_, src) when not (view.holds server) -> [ Policy.Provision { src; dst = server } ]
      | Some _ -> []
      | None ->
          if
            view.holds server
            && List.exists
                 (fun (_, b) -> Dcache_prelude.Float_cmp.approx_eq b view.now)
                 t.intervals.(server)
          then [ Policy.Drop server ]
          else []
  end in
  (module M : Policy.POLICY)
