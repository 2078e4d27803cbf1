(* Log-scale duration histograms, HDR-style: exact buckets for
   0..15, then 16 sub-buckets per power-of-two octave.  The layout is
   chosen so that [bucket_of] is a handful of shifts (no float math,
   no allocation) and [bucket_bounds] is its exact inverse — the
   quantile error bound (1/16) falls out of the sub-bucket width.

   Cells are [Atomic.t]: a record from a pool task domain is an
   atomic increment, and bucket counts / the int sum are commutative
   sums — totals and quantile readbacks are therefore identical at
   any domain count without any per-task merge step (int addition
   commutes exactly; contrast the float sums Chrome-trace gauges
   carry, which stay wall-clock-only). *)

let sub_bits = 4
let sub_count = 1 lsl sub_bits (* 16 sub-buckets per octave *)

(* octaves 4..62 after the 16 exact buckets: (62 - 3) * 16 = 944,
   plus the 16 exact ones *)
let num_buckets = (62 - sub_bits + 1) * sub_count

let relative_error = 1.0 /. float_of_int sub_count

type t = {
  cells : int Atomic.t array;
  n : int Atomic.t;
  total : int Atomic.t; (* exact int sum of recorded values *)
}

let create () =
  {
    cells = Array.init num_buckets (fun _ -> Atomic.make 0);
    n = Atomic.make 0;
    total = Atomic.make 0;
  }

(* highest set bit position of v >= 1, branchy binary search — no
   refs, no allocation *)
let msb v =
  let v, r = if v lsr 32 <> 0 then (v lsr 32, 32) else (v, 0) in
  let v, r = if v lsr 16 <> 0 then (v lsr 16, r + 16) else (v, r) in
  let v, r = if v lsr 8 <> 0 then (v lsr 8, r + 8) else (v, r) in
  let v, r = if v lsr 4 <> 0 then (v lsr 4, r + 4) else (v, r) in
  let v, r = if v lsr 2 <> 0 then (v lsr 2, r + 2) else (v, r) in
  if v lsr 1 <> 0 then r + 1 else r

let bucket_of v =
  if v < sub_count then if v <= 0 then 0 else v
  else
    (* e <= 62 for any OCaml int, so the index tops out exactly at
       num_buckets - 1 *)
    let e = msb v in
    let mantissa = (v lsr (e - sub_bits)) land (sub_count - 1) in
    ((e - sub_bits + 1) * sub_count) + mantissa

let bucket_bounds i =
  if i < 0 || i >= num_buckets then invalid_arg "Histo_log.bucket_bounds: index out of range";
  if i < sub_count then (i, i)
  else
    let e = (i / sub_count) + sub_bits - 1 in
    let m = i mod sub_count in
    let width = 1 lsl (e - sub_bits) in
    let lo = (1 lsl e) + (m * width) in
    (lo, lo + width - 1)

let record t v =
  Atomic.incr t.cells.(bucket_of v);
  Atomic.incr t.n;
  ignore (Atomic.fetch_and_add t.total (if v > 0 then v else 0))

let count t = Atomic.get t.n
let sum t = Atomic.get t.total
let counts t = Array.map Atomic.get t.cells

let reset t =
  Array.iter (fun c -> Atomic.set c 0) t.cells;
  Atomic.set t.n 0;
  Atomic.set t.total 0

(* Quantiles over a snapshot walk.  Rank semantics: the value of rank
   ceil(q * n) in the sorted multiset (rank 1 = smallest), reported
   as the holding bucket's upper bound — deterministic and at most
   [relative_error] high. *)

let quantiles t qs =
  let n = Atomic.get t.n in
  if n = 0 then Array.map (fun _ -> 0.0) qs
  else begin
    let out = Array.make (Array.length qs) 0.0 in
    let nq = Array.length qs in
    let cum = ref 0 in
    let qi = ref 0 in
    let bi = ref 0 in
    while !qi < nq && !bi < num_buckets do
      let c = Atomic.get t.cells.(!bi) in
      if c > 0 then begin
        cum := !cum + c;
        (* serve every probe whose target rank this bucket reaches *)
        let continue = ref true in
        while !continue && !qi < nq do
          let q = qs.(!qi) in
          let target =
            let r = int_of_float (Float.ceil (q *. float_of_int n)) in
            if r < 1 then 1 else if r > n then n else r
          in
          if !cum >= target then begin
            let _, hi = bucket_bounds !bi in
            out.(!qi) <- float_of_int hi;
            incr qi
          end
          else continue := false
        done
      end;
      incr bi
    done;
    (* any probes left unserved (shouldn't happen: cum reaches n) get
       the last non-empty bucket's bound via the loop above; guard
       anyway so the function is total *)
    while !qi < nq do
      out.(!qi) <- (let _, hi = bucket_bounds (num_buckets - 1) in float_of_int hi);
      incr qi
    done;
    out
  end

let quantile t q = (quantiles t [| q |]).(0)
