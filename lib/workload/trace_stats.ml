open Dcache_core

type t = {
  n : int;
  m : int;
  horizon : float;
  servers_used : int;
  mean_gap : float;
  median_gap : float;
  gap_cv : float;
  locality : float;
  mean_revisit : float;
  median_revisit : float;
  popularity : (int * int) array;
  top_share : float;
  revisits : float array;
}

let analyze seq =
  let n = Sequence.n seq and m = Sequence.m seq in
  if n = 0 then invalid_arg "Trace_stats.analyze: empty trace";
  let gaps = Array.init n (fun i -> Sequence.time seq (i + 1) -. Sequence.time seq i) in
  let gap_acc = Dcache_prelude.Stats.acc_create () in
  Array.iter (Dcache_prelude.Stats.acc_add gap_acc) gaps;
  let counts = Array.make m 0 in
  let locality_hits = ref 0 in
  let revisits = ref [] in
  let prev = Sequence.prevs seq in
  for i = 1 to n do
    let s = Sequence.server seq i in
    counts.(s) <- counts.(s) + 1;
    if i > 1 && Sequence.server seq (i - 1) = s then incr locality_hits;
    (* ignore the dummy predecessor and the boundary r_0 link *)
    let p = prev.(i) in
    if p > 0 then revisits := (Sequence.time seq i -. Sequence.time seq p) :: !revisits
  done;
  let revisit_array = Array.of_list !revisits in
  let revisit_acc = Dcache_prelude.Stats.acc_create () in
  Array.iter (Dcache_prelude.Stats.acc_add revisit_acc) revisit_array;
  let popularity =
    Array.init m (fun s -> (s, counts.(s)))
    |> Array.to_list
    |> List.filter (fun (_, c) -> c > 0)
    |> List.sort (fun (_, a) (_, b) -> Int.compare b a)
    |> Array.of_list
  in
  let mean = Dcache_prelude.Stats.mean gap_acc in
  let std = Dcache_prelude.Stats.stddev gap_acc in
  {
    n;
    m;
    horizon = Sequence.horizon seq;
    servers_used = Array.length popularity;
    mean_gap = mean;
    median_gap = Dcache_prelude.Stats.median gaps;
    gap_cv =
      (if n < 2 || Dcache_prelude.Float_cmp.approx_eq mean 0. then nan else std /. mean);
    locality = (if n < 2 then nan else float_of_int !locality_hits /. float_of_int (n - 1));
    mean_revisit =
      (if Array.length revisit_array = 0 then nan else Dcache_prelude.Stats.mean revisit_acc);
    median_revisit =
      (if Array.length revisit_array = 0 then nan else Dcache_prelude.Stats.median revisit_array);
    popularity;
    top_share =
      (match Array.length popularity with
      | 0 -> nan
      | _ -> float_of_int (snd popularity.(0)) /. float_of_int n);
    revisits = revisit_array;
  }

let cacheability model stats =
  let delta_t = Cost_model.delta_t model in
  let total = Array.length stats.revisits in
  if total = 0 then nan
  else
    let cheap = Array.fold_left (fun acc s -> if s <= delta_t then acc + 1 else acc) 0 stats.revisits in
    float_of_int cheap /. float_of_int total

let pp ppf t =
  Format.fprintf ppf "@[<v>requests        %d over %d servers (%d used), horizon %.3f@," t.n t.m
    t.servers_used t.horizon;
  Format.fprintf ppf "inter-arrivals  mean %.4f, median %.4f, " t.mean_gap t.median_gap;
  if Float.is_nan t.gap_cv then Format.fprintf ppf "cv none@,"
  else Format.fprintf ppf "cv %.2f%s@," t.gap_cv (if t.gap_cv > 1.5 then " (bursty)" else "");
  if Float.is_nan t.locality then Format.fprintf ppf "locality        none@,"
  else
    Format.fprintf ppf "locality        %.1f%% of requests repeat the previous server@,"
      (100. *. t.locality);
  if Float.is_nan t.mean_revisit then Format.fprintf ppf "revisits        none@,"
  else
    Format.fprintf ppf "revisits        mean %.4f, median %.4f@," t.mean_revisit
      t.median_revisit;
  Format.fprintf ppf "popularity      top server holds %.1f%% of requests@]" (100. *. t.top_share)

let pp_with_model model ppf t =
  pp ppf t;
  let c = cacheability model t in
  Format.fprintf ppf "@,break-even      lambda/mu = %.4f; " (Cost_model.delta_t model);
  if Float.is_nan c then Format.fprintf ppf "no revisits to cache"
  else
    Format.fprintf ppf "%.1f%% of revisits are cheaper to cache%s" (100. *. c)
      (if c >= 0.5 then " (caching-friendly trace)" else " (transfer-dominant trace)")
