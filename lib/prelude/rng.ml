(* xoshiro256** state: the words s0..s3 at byte offsets 0, 8, 16 and
   24.  Kept in [Bytes] rather than [mutable int64] fields, which would
   box a fresh Int64 on every store: [get_int64_ne]/[set_int64_ne]
   move raw 64-bit values, so a step allocates nothing. *)
type t = Bytes.t

(* splitmix64: used only to expand a seed into the 256-bit xoshiro
   state, and to derive split streams. *)
let splitmix64_next state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let of_seed64 seed64 =
  let state = ref seed64 in
  let t = Bytes.create 32 in
  for k = 0 to 3 do
    Bytes.set_int64_ne t (8 * k) (splitmix64_next state)
  done;
  t

let create seed = of_seed64 (Int64.of_int seed)

let copy = Bytes.copy

let rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* Inlined into every draw so the 64-bit result stays unboxed until
   it is narrowed to an int or a float. *)
let[@inline] bits64 t =
  let open Int64 in
  let s0 = Bytes.get_int64_ne t 0 and s1 = Bytes.get_int64_ne t 8 in
  let s2 = Bytes.get_int64_ne t 16 and s3 = Bytes.get_int64_ne t 24 in
  let result = mul (rotl (mul s1 5L) 7) 9L in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  Bytes.set_int64_ne t 8 (logxor s1 s2);
  Bytes.set_int64_ne t 0 (logxor s0 s3);
  Bytes.set_int64_ne t 16 (logxor s2 (shift_left s1 17));
  Bytes.set_int64_ne t 24 (rotl s3 45);
  result

let split t = of_seed64 (bits64 t)

(* [derive] hashes the parent's full 256-bit state together with the
   index through splitmix64.  Unlike [split] it must not advance the
   parent: workers of a parallel sweep derive their streams in
   whatever order the scheduler runs them, and the result has to be
   the same stream for the same (parent state, index) pair. *)
let derive t index =
  if index < 0 then invalid_arg "Rng.derive: index must be non-negative";
  let open Int64 in
  let word k = Bytes.get_int64_ne t (8 * k) in
  let state =
    ref (logxor (logxor (word 0) (rotl (word 1) 13)) (logxor (rotl (word 2) 29) (rotl (word 3) 43)))
  in
  state := add !state (mul (add (of_int index) 1L) 0x9E3779B97F4A7C15L);
  of_seed64 (splitmix64_next state)

(* Non-negative int from the top 62 bits (OCaml ints hold 62 bits plus
   sign on 64-bit platforms, so keeping 63 would wrap negative). *)
let bits62 t = Int64.to_int (Int64.shift_right_logical (bits64 t) 2)

(* rejection sampling to avoid modulo bias *)
let rec below t bound =
  let r = bits62 t in
  let v = r mod bound in
  if r - v > max_int - bound + 1 then below t bound else v

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  below t bound

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

(* Inlined too, so a caller that compares or combines the draw never
   boxes it. *)
let[@inline] float t bound =
  (* 53 uniform bits, as in the standard construction *)
  let b = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  b /. 9007199254740992.0 *. bound

let float_in t lo hi = lo +. float t (hi -. lo)

let bool t = Int64.logand (bits64 t) 1L = 1L

(* [true] with probability [p]: the draw is compared here, so it is
   never boxed *)
let bernoulli t p = float t 1.0 < p

(* The exponential and Pareto draws invert the CDF at [1 - u], which is
   in (0, 1].  A fill writes the draws in index order, so it takes the
   stream the single draws would, and boxes none of them.  Each check
   runs before the first draw, even for an empty array. *)
let check_rate rate =
  if not (rate > 0.) then invalid_arg "Rng.exponential: rate must be positive"

let[@inline] exponential_draw t rate =
  let u = 1.0 -. float t 1.0 in
  -.log u /. rate

let exponential t ~rate =
  check_rate rate;
  exponential_draw t rate

let fill_exponential t ~rate a =
  check_rate rate;
  for i = 0 to Array.length a - 1 do
    a.(i) <- exponential_draw t rate
  done

let fill_pareto t ~shape ~scale a =
  if not (shape > 0. && scale > 0.) then invalid_arg "Rng.pareto: parameters must be positive";
  for i = 0 to Array.length a - 1 do
    let u = 1.0 -. float t 1.0 in
    a.(i) <- scale /. (u ** (1.0 /. shape))
  done

(* Running sums of the weights, left to right: a draw is then one
   [float] and a binary search, not a pass that re-sums the weights. *)
type weights = float array

let weights w =
  let n = Array.length w in
  let sums = Array.make n 0.0 in
  for k = 0 to n - 1 do
    if not (w.(k) >= 0.) then invalid_arg "Rng.weights: weights must be non-negative";
    sums.(k) <- (if k = 0 then 0.0 else sums.(k - 1)) +. w.(k)
  done;
  if not (n > 0 && sums.(n - 1) > 0.) then
    invalid_arg "Rng.weights: weights must have positive sum";
  sums

(* The first index whose running sum exceeds the draw, or the last
   index when none before it does: a draw below the total can still
   round up to it.  A loop rather than a recursion, which would box
   the draw on every step. *)
let categorical t sums =
  let x = float t sums.(Array.length sums - 1) in
  let lo = ref 0 and hi = ref (Array.length sums - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if x < sums.(mid) then hi := mid else lo := mid + 1
  done;
  !lo

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
