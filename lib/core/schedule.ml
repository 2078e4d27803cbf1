type cache = { server : int; from_time : float; to_time : float }

type source = From_server of int | From_external

type transfer = { src : source; dst : int; time : float }

(* Six columns.  Caches are sorted by (server, from, to), transfers by
   (time, dst); a transfer source of [external_src] is an upload.  The
   cost sums and queries read the columns directly, so they box no
   float and build no record per piece. *)
type t = {
  cache_server : int array;
  cache_from : float array;
  cache_to : float array;
  tr_src : int array;
  tr_dst : int array;
  tr_time : float array;
}

let external_src = -1

(* The one validation routine: the columns of each kind have one
   length, and every cache, then every transfer, is well formed, in
   column order, with [make]'s messages. *)
let check ~server ~from_time ~to_time ~src ~dst ~time =
  let num_caches = Array.length server and num_transfers = Array.length src in
  if Array.length from_time <> num_caches || Array.length to_time <> num_caches then
    invalid_arg "Schedule: cache columns differ in length";
  if Array.length dst <> num_transfers || Array.length time <> num_transfers then
    invalid_arg "Schedule: transfer columns differ in length";
  for k = 0 to num_caches - 1 do
    let a = from_time.(k) and b = to_time.(k) in
    if server.(k) < 0 then invalid_arg "Schedule: cache on negative server";
    if not (Float.is_finite a && Float.is_finite b) then
      invalid_arg "Schedule: non-finite cache endpoint";
    if a < 0. then invalid_arg "Schedule: cache starts before time 0";
    if b <= a then invalid_arg "Schedule: empty or reversed cache interval"
  done;
  for k = 0 to num_transfers - 1 do
    let s = src.(k) and d = dst.(k) and tm = time.(k) in
    if d < 0 then invalid_arg "Schedule: transfer to negative server";
    if not (Float.is_finite tm) || tm < 0. then invalid_arg "Schedule: transfer at invalid time";
    if s <> external_src then begin
      if s < 0 then invalid_arg "Schedule: transfer from negative server";
      if s = d then invalid_arg "Schedule: transfer source equals destination"
    end
  done

(* the stored orders: caches by (server, from, to), transfers by
   (time, dst), compared at two column indices *)
let cache_order server from_time to_time a b =
  match Int.compare server.(a) server.(b) with
  | 0 -> (
      match Float.compare from_time.(a) from_time.(b) with
      | 0 -> Float.compare to_time.(a) to_time.(b)
      | c -> c)
  | c -> c

let transfer_order time dst a b =
  match Float.compare time.(a) time.(b) with 0 -> Int.compare dst.(a) dst.(b) | c -> c

(* An index permutation of [k] pieces, stable-sorted by [cmp]: pieces
   that tie keep their input order, as [List.sort] did. *)
let sorted_perm k cmp =
  let perm = Array.init k Fun.id in
  Array.stable_sort cmp perm;
  perm

let pick_int perm col = Array.map (fun k -> col.(k)) perm

(* a loop, not [Array.map]: a closure returning a float boxes it *)
let pick_float perm col =
  let k = Array.length perm in
  let out = Array.make k 0.0 in
  for j = 0 to k - 1 do
    out.(j) <- col.(perm.(j))
  done;
  out

let of_columns ~server ~from_time ~to_time ~src ~dst ~time =
  check ~server ~from_time ~to_time ~src ~dst ~time;
  let caches = sorted_perm (Array.length server) (cache_order server from_time to_time) in
  let transfers = sorted_perm (Array.length src) (transfer_order time dst) in
  {
    cache_server = pick_int caches server;
    cache_from = pick_float caches from_time;
    cache_to = pick_float caches to_time;
    tr_src = pick_int transfers src;
    tr_dst = pick_int transfers dst;
    tr_time = pick_float transfers time;
  }

let of_sorted_columns ~server ~from_time ~to_time ~src ~dst ~time =
  check ~server ~from_time ~to_time ~src ~dst ~time;
  for k = 1 to Array.length server - 1 do
    if cache_order server from_time to_time (k - 1) k > 0 then
      invalid_arg "Schedule.of_sorted_columns: caches out of (server, from, to) order"
  done;
  for k = 1 to Array.length src - 1 do
    if transfer_order time dst (k - 1) k > 0 then
      invalid_arg "Schedule.of_sorted_columns: transfers out of (time, dst) order"
  done;
  {
    cache_server = server;
    cache_from = from_time;
    cache_to = to_time;
    tr_src = src;
    tr_dst = dst;
    tr_time = time;
  }

let make ~caches ~transfers =
  let nc = List.length caches and nt = List.length transfers in
  let server = Array.make nc 0 and from_time = Array.make nc 0.0 and to_time = Array.make nc 0.0 in
  List.iteri
    (fun k c ->
      server.(k) <- c.server;
      from_time.(k) <- c.from_time;
      to_time.(k) <- c.to_time)
    caches;
  let src = Array.make nt 0 and dst = Array.make nt 0 and time = Array.make nt 0.0 in
  List.iteri
    (fun k tr ->
      (* a negative [From_server] must not read as an upload: [-2]
         makes [of_columns] reject it as a negative server *)
      src.(k) <-
        (match tr.src with
        | From_server s -> if s < 0 then -2 else s
        | From_external -> external_src);
      dst.(k) <- tr.dst;
      time.(k) <- tr.time)
    transfers;
  of_columns ~server ~from_time ~to_time ~src ~dst ~time

let empty =
  {
    cache_server = [||];
    cache_from = [||];
    cache_to = [||];
    tr_src = [||];
    tr_dst = [||];
    tr_time = [||];
  }

let num_caches t = Array.length t.cache_server
let num_transfers t = Array.length t.tr_src

let caches t =
  let acc = ref [] in
  for k = num_caches t - 1 downto 0 do
    acc :=
      { server = t.cache_server.(k); from_time = t.cache_from.(k); to_time = t.cache_to.(k) }
      :: !acc
  done;
  !acc

let source_of s = if s = external_src then From_external else From_server s

let transfers t =
  let acc = ref [] in
  for k = num_transfers t - 1 downto 0 do
    acc := { src = source_of t.tr_src.(k); dst = t.tr_dst.(k); time = t.tr_time.(k) } :: !acc
  done;
  !acc

(* [Stats.kahan_add]'s Neumaier step, unchanged, on a local
   [| sum; compensation |] accumulator.  Inlined, so the piece cost [x]
   is never boxed; both sums match a [Stats.kahan] accumulator over
   the per-piece costs bit for bit. *)
let[@inline] neumaier acc x =
  let sum = acc.(0) in
  let s = sum +. x in
  if Float.is_finite s then
    if abs_float sum >= abs_float x then acc.(1) <- acc.(1) +. (sum -. s +. x)
    else acc.(1) <- acc.(1) +. (x -. s +. sum);
  acc.(0) <- s

let neumaier_total acc = if Float.is_finite acc.(0) then acc.(0) +. acc.(1) else acc.(0)

let caching_cost model t =
  let mu = model.Cost_model.mu and acc = [| 0.; 0. |] in
  for k = 0 to num_caches t - 1 do
    neumaier acc (mu *. (t.cache_to.(k) -. t.cache_from.(k)))
  done;
  neumaier_total acc

let transfer_cost model t =
  let lambda = model.Cost_model.lambda and upload = model.Cost_model.upload in
  let acc = [| 0.; 0. |] in
  for k = 0 to num_transfers t - 1 do
    neumaier acc (if t.tr_src.(k) = external_src then upload else lambda)
  done;
  neumaier_total acc

let cost model t = caching_cost model t +. transfer_cost model t

let covers t k time = t.cache_from.(k) <= time && time <= t.cache_to.(k)

let num_copies_at t time =
  let count = ref 0 in
  for k = 0 to num_caches t - 1 do
    if covers t k time then incr count
  done;
  !count

(* does some piece in [0, len) satisfy [p]? *)
let exists len p =
  let rec scan k = k < len && (p k || scan (k + 1)) in
  scan 0

let holds_copy_at t ~server ~time =
  exists (num_caches t) (fun k -> t.cache_server.(k) = server && covers t k time)

(* -- validation ---------------------------------------------------------- *)

let eq = Dcache_prelude.Float_cmp.approx_eq

let validate seq t =
  let errors = ref [] in
  let err fmt = Format.kasprintf (fun s -> errors := s :: !errors) fmt in
  let horizon = Sequence.horizon seq in
  let m = Sequence.m seq in
  let nc = num_caches t and nt = num_transfers t in
  (* well-formedness relative to the instance *)
  for k = 0 to nc - 1 do
    let s = t.cache_server.(k) in
    if s >= m then err "cache on unknown server s%d" s;
    if t.cache_to.(k) > horizon +. Dcache_prelude.Float_cmp.default_eps then
      err "dead-end cache on s%d beyond horizon (%g > %g)" s t.cache_to.(k) horizon
  done;
  for k = 0 to nt - 1 do
    if t.tr_dst.(k) >= m then err "transfer to unknown server s%d" t.tr_dst.(k);
    if t.tr_src.(k) >= m then err "transfer from unknown server s%d" t.tr_src.(k);
    if t.tr_time.(k) > horizon then err "transfer at %g beyond horizon %g" t.tr_time.(k) horizon
  done;
  (* no overlapping cache intervals on one server *)
  for k = 1 to nc - 1 do
    let a = k - 1 in
    if
      t.cache_server.(a) = t.cache_server.(k)
      && t.cache_from.(k) < t.cache_to.(a)
      && not (eq t.cache_from.(k) t.cache_to.(a))
    then
      err "overlapping caches on s%d: [%g,%g] and [%g,%g]" t.cache_server.(a) t.cache_from.(a)
        t.cache_to.(a) t.cache_from.(k) t.cache_to.(k)
  done;
  (* provenance: every cache interval must begin where a copy exists *)
  for k = 0 to nc - 1 do
    let s = t.cache_server.(k) and start = t.cache_from.(k) in
    let sourced =
      (s = 0 && eq start 0.0)
      || exists nt (fun j -> t.tr_dst.(j) = s && eq t.tr_time.(j) start)
      || exists nc (fun j -> t.cache_server.(j) = s && eq t.cache_to.(j) start)
    in
    if not sourced then err "unsourced cache on s%d starting at %g" s start
  done;
  (* transfers must depart from a copy holder *)
  for k = 0 to nt - 1 do
    let s = t.tr_src.(k) and time = t.tr_time.(k) in
    if s <> external_src then begin
      let holder = holds_copy_at t ~server:s ~time || (s = 0 && eq time 0.0) in
      if not holder then err "transfer at %g departs from s%d which holds no copy" time s
    end
  done;
  (* every request is served *)
  for i = 1 to Sequence.n seq do
    let s = Sequence.server seq i and ti = Sequence.time seq i in
    let by_cache =
      exists nc (fun k ->
          let a = t.cache_from.(k) and b = t.cache_to.(k) in
          t.cache_server.(k) = s && (a < ti || eq a ti) && (ti < b || eq b ti))
    in
    let by_transfer = exists nt (fun k -> t.tr_dst.(k) = s && eq t.tr_time.(k) ti) in
    if not (by_cache || by_transfer) then err "request r%d at (s%d, %g) is not served" i s ti
  done;
  (* coverage of [0, horizon] by the union of cache intervals *)
  if horizon > 0. then begin
    let spans =
      List.init nc (fun k -> Dcache_prelude.Interval.make ~lo:t.cache_from.(k) ~hi:t.cache_to.(k))
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
  not (exists (num_transfers t) (fun k -> not (is_request t.tr_dst.(k) t.tr_time.(k))))

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
  for k = 0 to num_caches t - 1 do
    let s = t.cache_server.(k) in
    if s < m then
      for x = col t.cache_from.(k) to col t.cache_to.(k) do
        Bytes.set rows.(s) x '='
      done
  done;
  for k = 0 to num_transfers t - 1 do
    if t.tr_src.(k) <> external_src then put t.tr_src.(k) t.tr_time.(k) '^';
    put t.tr_dst.(k) t.tr_time.(k) 'T'
  done;
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
  for k = 0 to num_caches t - 1 do
    Format.fprintf ppf "@,  H(s%d, %g, %g)" t.cache_server.(k) t.cache_from.(k) t.cache_to.(k)
  done;
  Format.fprintf ppf "@,transfers:";
  for k = 0 to num_transfers t - 1 do
    let s = t.tr_src.(k) in
    if s = external_src then Format.fprintf ppf "@,  Up(ext -> s%d, %g)" t.tr_dst.(k) t.tr_time.(k)
    else Format.fprintf ppf "@,  Tr(s%d -> s%d, %g)" s t.tr_dst.(k) t.tr_time.(k)
  done;
  Format.fprintf ppf "@]"
