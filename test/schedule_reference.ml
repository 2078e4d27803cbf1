(* The list-based Schedule that the columnar one replaced, kept as the
   reference the differential tests compare it against: pieces are
   records in two lists, [make] sorts them with [List.sort], and the
   cost sums run [Stats.kahan_add] through a closure per piece.  The
   piece types are Schedule's, so pieces compare with [=]. *)

open Dcache_core

type cache = Schedule.cache = { server : int; from_time : float; to_time : float }

type source = Schedule.source = From_server of int | From_external

type transfer = Schedule.transfer = { src : source; dst : int; time : float }

type t = { caches : cache list; transfers : transfer list }

let compare_cache a b =
  match Int.compare a.server b.server with
  | 0 -> (
      match Float.compare a.from_time b.from_time with
      | 0 -> Float.compare a.to_time b.to_time
      | c -> c)
  | c -> c

let compare_transfer a b =
  match Float.compare a.time b.time with 0 -> Int.compare a.dst b.dst | c -> c

let check_cache c =
  if c.server < 0 then invalid_arg "Schedule: cache on negative server";
  if not (Float.is_finite c.from_time && Float.is_finite c.to_time) then
    invalid_arg "Schedule: non-finite cache endpoint";
  if c.from_time < 0. then invalid_arg "Schedule: cache starts before time 0";
  if c.to_time <= c.from_time then invalid_arg "Schedule: empty or reversed cache interval"

let check_transfer tr =
  if tr.dst < 0 then invalid_arg "Schedule: transfer to negative server";
  if not (Float.is_finite tr.time) || tr.time < 0. then
    invalid_arg "Schedule: transfer at invalid time";
  match tr.src with
  | From_server s ->
      if s < 0 then invalid_arg "Schedule: transfer from negative server";
      if s = tr.dst then invalid_arg "Schedule: transfer source equals destination"
  | From_external -> ()

let make ~caches ~transfers =
  List.iter check_cache caches;
  List.iter check_transfer transfers;
  {
    caches = List.sort compare_cache caches;
    transfers = List.sort compare_transfer transfers;
  }

let empty = { caches = []; transfers = [] }

let caches t = t.caches
let transfers t = t.transfers

let kahan_sum_by f xs =
  let k = Dcache_prelude.Stats.kahan_create () in
  List.iter (fun x -> Dcache_prelude.Stats.kahan_add k (f x)) xs;
  Dcache_prelude.Stats.kahan_total k

let caching_cost model t =
  kahan_sum_by (fun c -> model.Cost_model.mu *. (c.to_time -. c.from_time)) t.caches

let transfer_cost model t =
  kahan_sum_by
    (fun tr ->
      match tr.src with
      | From_server _ -> model.Cost_model.lambda
      | From_external -> model.Cost_model.upload)
    t.transfers

let cost model t = caching_cost model t +. transfer_cost model t

let num_transfers t = List.length t.transfers

let num_copies_at t time =
  List.fold_left
    (fun acc c -> if c.from_time <= time && time <= c.to_time then acc + 1 else acc)
    0 t.caches

let holds_copy_at t ~server ~time =
  List.exists (fun c -> c.server = server && c.from_time <= time && time <= c.to_time) t.caches

(* -- validation ---------------------------------------------------------- *)

let eq = Dcache_prelude.Float_cmp.approx_eq

let validate seq t =
  let errors = ref [] in
  let err fmt = Format.kasprintf (fun s -> errors := s :: !errors) fmt in
  let horizon = Sequence.horizon seq in
  let m = Sequence.m seq in
  (* well-formedness relative to the instance *)
  List.iter
    (fun c ->
      if c.server >= m then err "cache on unknown server s%d" c.server;
      if c.to_time > horizon +. Dcache_prelude.Float_cmp.default_eps then
        err "dead-end cache on s%d beyond horizon (%g > %g)" c.server c.to_time horizon)
    t.caches;
  List.iter
    (fun tr ->
      if tr.dst >= m then err "transfer to unknown server s%d" tr.dst;
      (match tr.src with
      | From_server s when s >= m -> err "transfer from unknown server s%d" s
      | From_server _ | From_external -> ());
      if tr.time > horizon then err "transfer at %g beyond horizon %g" tr.time horizon)
    t.transfers;
  (* no overlapping cache intervals on one server *)
  let rec check_overlaps = function
    | a :: (b :: _ as rest) ->
        if a.server = b.server && b.from_time < a.to_time && not (eq b.from_time a.to_time)
        then
          err "overlapping caches on s%d: [%g,%g] and [%g,%g]" a.server a.from_time a.to_time
            b.from_time b.to_time;
        check_overlaps rest
    | [ _ ] | [] -> ()
  in
  check_overlaps t.caches;
  (* provenance: every cache interval must begin where a copy exists *)
  let incoming_transfer_at server time =
    List.exists (fun tr -> tr.dst = server && eq tr.time time) t.transfers
  in
  let preceding_cache_at server time =
    List.exists (fun c -> c.server = server && eq c.to_time time) t.caches
  in
  List.iter
    (fun c ->
      let sourced =
        (c.server = 0 && eq c.from_time 0.0)
        || incoming_transfer_at c.server c.from_time
        || preceding_cache_at c.server c.from_time
      in
      if not sourced then
        err "unsourced cache on s%d starting at %g" c.server c.from_time)
    t.caches;
  (* transfers must depart from a copy holder *)
  List.iter
    (fun tr ->
      match tr.src with
      | From_external -> ()
      | From_server s ->
          let holder =
            holds_copy_at t ~server:s ~time:tr.time || (s = 0 && eq tr.time 0.0)
          in
          if not holder then
            err "transfer at %g departs from s%d which holds no copy" tr.time s)
    t.transfers;
  (* every request is served *)
  for i = 1 to Sequence.n seq do
    let s = Sequence.server seq i and ti = Sequence.time seq i in
    let by_cache =
      List.exists
        (fun c ->
          c.server = s
          && (c.from_time < ti || eq c.from_time ti)
          && (ti < c.to_time || eq c.to_time ti))
        t.caches
    in
    let by_transfer = List.exists (fun tr -> tr.dst = s && eq tr.time ti) t.transfers in
    if not (by_cache || by_transfer) then err "request r%d at (s%d, %g) is not served" i s ti
  done;
  (* coverage of [0, horizon] by the union of cache intervals *)
  if horizon > 0. then begin
    let spans =
      List.map
        (fun c -> Dcache_prelude.Interval.make ~lo:c.from_time ~hi:c.to_time)
        t.caches
    in
    match Dcache_prelude.Interval.first_gap spans ~lo:0.0 ~hi:horizon with
    | Some (a, b) -> err "no copy cached anywhere during [%g, %g]" a b
    | None -> ()
  end;
  match !errors with [] -> Ok () | es -> Error (List.rev es)

let is_standard_form seq t =
  let n = Sequence.n seq in
  let is_request dst time =
    let rec scan i =
      if i > n then false
      else if Sequence.server seq i = dst && eq (Sequence.time seq i) time then true
      else scan (i + 1)
    in
    scan 1
  in
  List.for_all (fun tr -> is_request tr.dst tr.time) t.transfers

(* -- rendering ----------------------------------------------------------- *)

let render seq t =
  let width = 72 in
  let horizon = Sequence.horizon seq in
  let horizon = if horizon <= 0. then 1.0 else horizon in
  let col time = min (width - 1) (int_of_float (time /. horizon *. float_of_int (width - 1))) in
  let m = Sequence.m seq in
  let rows = Array.init m (fun _ -> Bytes.make width ' ') in
  let put server time ch =
    if server >= 0 && server < m then Bytes.set rows.(server) (col time) ch
  in
  List.iter
    (fun c ->
      if c.server < m then
        for x = col c.from_time to col c.to_time do
          Bytes.set rows.(c.server) x '='
        done)
    t.caches;
  List.iter
    (fun tr ->
      (match tr.src with From_server s -> put s tr.time '^' | From_external -> ());
      put tr.dst tr.time 'T')
    t.transfers;
  for i = 1 to Sequence.n seq do
    put (Sequence.server seq i) (Sequence.time seq i) '*'
  done;
  let buf = Buffer.create ((m + 2) * (width + 8)) in
  Buffer.add_string buf
    (Printf.sprintf "time 0 .. %g   (= cached, * request, T arrival, ^ departure)\n" horizon);
  for s = 0 to m - 1 do
    Buffer.add_string buf (Printf.sprintf "s%-3d |%s|\n" s (Bytes.to_string rows.(s)))
  done;
  Buffer.contents buf

let pp ppf t =
  Format.fprintf ppf "@[<v>caches:";
  List.iter
    (fun c -> Format.fprintf ppf "@,  H(s%d, %g, %g)" c.server c.from_time c.to_time)
    t.caches;
  Format.fprintf ppf "@,transfers:";
  List.iter
    (fun tr ->
      match tr.src with
      | From_server s -> Format.fprintf ppf "@,  Tr(s%d -> s%d, %g)" s tr.dst tr.time
      | From_external -> Format.fprintf ppf "@,  Up(ext -> s%d, %g)" tr.dst tr.time)
    t.transfers;
  Format.fprintf ppf "@]"

(* -- the reconstruction walk --------------------------------------------- *)

(* [Streaming_dp.schedule]'s walk as it was before it recorded its
   pieces in per-request slots: pieces are appended in walk order and
   [Schedule.make] sorts them.  It reads the solver only through its
   public accessors (the requests through [to_sequence], C through
   [costs]), so it recomputes p(i) from the servers, and the C(i) and
   D(i) choices as [push] made them, bit for bit.  [model] is the
   stream's. *)
let walk model stream =
  let module S = Streaming_dp in
  let seq = S.to_sequence stream in
  let n = Sequence.n seq in
  let server_at i = Sequence.server seq i and time_at i = Sequence.time seq i in
  let mu = model.Cost_model.mu in
  let lam_eff = Float.min model.Cost_model.lambda model.Cost_model.upload in
  let prev = Array.make (n + 1) (-1) and last_on = Array.make (Sequence.m seq) (-1) in
  last_on.(0) <- 0;
  for i = 1 to n do
    let s = server_at i in
    prev.(i) <- last_on.(s);
    last_on.(s) <- i
  done;
  (* push's cache-or-step test for C(i) *)
  let c = S.costs stream in
  let cached i =
    let step =
      c.(i - 1)
      +. (mu *. (time_at i -. time_at (i - 1)))
      +. lam_eff
    in
    prev.(i) >= 0 && S.semi_cost_at stream i <= step
  in
  let caches = ref [] and transfers = ref [] in
  let add_cache server a b =
    if time_at b > time_at a then
      caches := (server, time_at a, time_at b) :: !caches
  in
  let external_src = model.Cost_model.upload < model.Cost_model.lambda in
  let add_transfer src dst i =
    transfers := ((if external_src then -1 else src), dst, time_at i) :: !transfers
  in
  let serve_marginal source lo hi =
    for h = lo to hi do
      let sh = server_at h and ph = prev.(h) in
      if ph < 0 || lam_eff <= mu *. (time_at h -. time_at ph) then
        add_transfer source sh h
      else add_cache sh ph h
    done
  in
  let in_d = ref false and i = ref n in
  while !in_d || !i > 0 do
    let cur = !i in
    let server = server_at cur in
    if not !in_d then begin
      if cached cur || server_at (cur - 1) = server then in_d := true
      else begin
        let before = cur - 1 in
        add_cache (server_at before) before cur;
        add_transfer (server_at before) server cur;
        i := before
      end
    end
    else begin
      let q = prev.(cur) in
      assert (q >= 0);
      add_cache server q cur;
      match S.pivot_at stream cur with
      | None ->
          serve_marginal server (q + 1) (cur - 1);
          in_d := false;
          i := q
      | Some kappa ->
          serve_marginal server (kappa + 1) (cur - 1);
          i := kappa
    end
  done;
  Schedule.make
    ~caches:
      (List.rev_map (fun (server, from_time, to_time) -> { Schedule.server; from_time; to_time }) !caches)
    ~transfers:
      (List.rev_map
         (fun (src, dst, time) ->
           { Schedule.src = (if src < 0 then Schedule.From_external else From_server src); dst; time })
         !transfers)
