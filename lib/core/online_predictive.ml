type predictor = server:int -> time:float -> float option

(* Next request on [server] strictly after [time], by binary search
   over the per-server request times (r_0 included on server 0). *)
let next_request_delay seq =
  let fill = Array.make (Sequence.m seq) 0 in
  for i = 0 to Sequence.n seq do
    let s = Sequence.server seq i in
    fill.(s) <- fill.(s) + 1
  done;
  let per_server = Array.map (fun count -> Array.make count 0.0) fill in
  Array.fill fill 0 (Array.length fill) 0;
  for i = 0 to Sequence.n seq do
    let s = Sequence.server seq i in
    per_server.(s).(fill.(s)) <- Sequence.time seq i;
    fill.(s) <- fill.(s) + 1
  done;
  fun ~server ~time ->
    let times = per_server.(server) in
    let n = Array.length times in
    let rec search lo hi =
      (* smallest index with times.(ix) > time *)
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if times.(mid) > time then search lo mid else search (mid + 1) hi
    in
    let ix = search 0 n in
    if ix >= n then Some infinity (* perfect knowledge: never again *)
    else Some (times.(ix) -. time)

let oracle seq = next_request_delay seq

let noisy ~rng ~relative_error seq =
  if relative_error < 0. then invalid_arg "Online_predictive.noisy: negative error";
  let exact = next_request_delay seq in
  fun ~server ~time ->
    match exact ~server ~time with
    | None -> None
    | Some delay when delay = infinity -> Some infinity
    | Some delay ->
        (* Box-Muller standard Gaussian *)
        let u1 = Float.max 1e-12 (Dcache_prelude.Rng.float rng 1.0) in
        let u2 = Dcache_prelude.Rng.float rng 1.0 in
        let g = sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2) in
        Some (delay *. Float.exp (relative_error *. g))

let frequency seq =
  (* running mean of observed same-server gaps: a pure log statistic,
     no lookahead *)
  let sums = Array.make (Sequence.m seq) 0.0 in
  let counts = Array.make (Sequence.m seq) 0 in
  let prev = Sequence.prevs seq in
  let cursor = ref 1 in
  fun ~server ~time ->
    (* absorb every request at or before [time] into the statistics *)
    while !cursor <= Sequence.n seq && Sequence.time seq !cursor <= time do
      let i = !cursor in
      let s = Sequence.server seq i in
      let p = prev.(i) in
      if p > 0 || (p = 0 && s = 0) then begin
        sums.(s) <- sums.(s) +. (Sequence.time seq i -. Sequence.time seq p);
        counts.(s) <- counts.(s) + 1
      end;
      incr cursor
    done;
    if counts.(server) = 0 then None else Some (sums.(server) /. float_of_int counts.(server))

let run ?(beta = 0.5) ?record_events predictor model seq =
  if not (beta > 0. && beta <= 1.) then invalid_arg "Online_predictive.run: beta must be in (0, 1]";
  let delta_t = Cost_model.delta_t model in
  let pad = 1e-9 *. delta_t in
  let window_policy ~server ~time =
    match predictor ~server ~time with
    | None -> delta_t
    | Some predicted ->
        if predicted <= delta_t /. beta then
          (* trust: hold to the predicted revisit (plus a hair, so an
             exact prediction still hits the closed window).  The cap
             delta_t / beta bounds how far past the paper's break-even
             point a wrong prediction can drag us. *)
          Float.min (delta_t /. beta) (Float.max pad (predicted +. pad))
        else
          (* distrust: a predicted-far revisit keeps only a
             beta-fraction of the paper's window, cutting the tail the
             standard algorithm would waste *)
          beta *. delta_t
  in
  Online_sc.run ?record_events ~window_policy model seq
