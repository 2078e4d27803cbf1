(* Memo discipline after coq-lsp's [Memo] tables: one module-level
   cache with typed stats, a hard entry bound, and LRU eviction driven
   by a monotonic touch tick.  The key is an MD5 digest of a canonical
   binary encoding of the input, so lookups cost one O(input) hash —
   cheap next to the O(mn) sweep they replace.  A cached result keeps
   its input's time column alive, since the solve reads it in place as
   its rows' times: 8 bytes per request, which the rows would hold
   otherwise, and nothing else of the input. *)

module Obs = Dcache_obs.Obs

let c_hit = Obs.counter "solve_cache.hit"
let c_miss = Obs.counter "solve_cache.miss"
let c_evict = Obs.counter "solve_cache.evict"
let g_size = Obs.gauge "solve_cache.size"

(* [all_freqs] as a labeled family: one gauge child per popularity
   rank (rank 0 = hottest entry) plus an ["other"] child carrying the
   summed tail, so the hit-frequency profile of the memo table is
   scrapeable without unbounded cardinality.  Lanes are resolved here,
   once. *)
let freq_lanes = 8

let v_entry_freq =
  Obs.gauge_vec "solve_cache.entry_freq" ~labels:[ "rank" ] ~max_children:(freq_lanes + 1)

let g_entry_freq =
  Array.init (freq_lanes + 1) (fun i ->
      Obs.gauge_with_label v_entry_freq (if i < freq_lanes then string_of_int i else "other"))

type entry = {
  result : Offline_dp.t;
  mutable freq : int; (* hits served by this entry *)
  mutable stamp : int; (* last-touch tick, for LRU eviction *)
}

type stats = { hits : int; misses : int; evictions : int; size : int }

let table : (string, entry) Hashtbl.t = Hashtbl.create 64
let tick = ref 0
let hits = ref 0
let misses = ref 0
let evictions = ref 0
let capacity = 64

(* The model's three rates as IEEE bits, then the digest of the
   sequence's fingerprint: hashing the fingerprint where it lies saves
   copying it behind the rates. *)
let key model seq =
  let rates = Bytes.create 24 in
  Bytes.set_int64_le rates 0 (Int64.bits_of_float model.Cost_model.mu);
  Bytes.set_int64_le rates 8 (Int64.bits_of_float model.Cost_model.lambda);
  Bytes.set_int64_le rates 16 (Int64.bits_of_float model.Cost_model.upload);
  Digest.string (Bytes.unsafe_to_string rates ^ Digest.string (Sequence.fingerprint seq))

let evict_lru () =
  let victim =
    (* dcache-sema: allow R1 — the fold picks the unique minimum stamp (ticks never repeat) *)
    Hashtbl.fold
      (fun k e acc ->
        match acc with Some (_, best) when best.stamp <= e.stamp -> acc | _ -> Some (k, e))
      table None
  in
  match victim with
  | Some (k, _) ->
      Hashtbl.remove table k;
      incr evictions;
      Obs.incr c_evict
  | None -> ()

let solve model seq =
  let k = key model seq in
  match Hashtbl.find_opt table k with
  | Some e ->
      incr tick;
      e.stamp <- !tick;
      e.freq <- e.freq + 1;
      incr hits;
      Obs.incr c_hit;
      e.result
  | None ->
      let result = Offline_dp.solve model seq in
      incr misses;
      Obs.incr c_miss;
      incr tick;
      if Hashtbl.length table >= capacity then evict_lru ();
      Hashtbl.add table k { result; freq = 0; stamp = !tick };
      Obs.set_gauge g_size (float_of_int (Hashtbl.length table));
      result

let stats () =
  { hits = !hits; misses = !misses; evictions = !evictions; size = Hashtbl.length table }

let all_freqs () =
  (* dcache-sema: allow R1 — the unordered fold is immediately sorted *)
  let fs = Hashtbl.fold (fun _ e acc -> e.freq :: acc) table [] in
  List.sort (fun a b -> Int.compare b a) fs

let publish_freqs () =
  if Obs.probe () then begin
    let fs = all_freqs () in
    (* top ranks into their own lanes, the tail summed into "other";
       unused lanes are written to 0 so a shrunk table doesn't leave
       stale ranks behind *)
    let lane = Array.make (freq_lanes + 1) 0 in
    List.iteri
      (fun rank f ->
        if rank < freq_lanes then lane.(rank) <- f
        else lane.(freq_lanes) <- lane.(freq_lanes) + f)
      fs;
    Array.iteri (fun i v -> Obs.set_gauge g_entry_freq.(i) (float_of_int v)) lane
  end

let clear () =
  Hashtbl.reset table;
  Obs.set_gauge g_size 0.0
