(* Two columns: request r_i sits at index [i - 1].  The boundary
   request r_0 = (s^1, 0) is implicit in the accessors. *)
type t = { m : int; server : int array; time : float array }

(* The shortest of [%.15g], [%.16g] and [%.17g] that reads back to
   [x] bit for bit, so two different times never print alike, as
   they can under [%g]'s six digits *)
let exact_string x =
  let rec shortest digits =
    let s = Printf.sprintf "%.*g" digits x in
    if digits = 17 || Int64.equal (Int64.bits_of_float (float_of_string s)) (Int64.bits_of_float x)
    then s
    else shortest (digits + 1)
  in
  shortest 15

(* The one validation routine.  Reads [times] by index rather than
   threading the previous time through the recursion, which would box
   it on every request. *)
let validate ~m ~servers ~times =
  let n = Array.length servers in
  if m < 1 then Error "Sequence: m must be at least 1"
  else if m > Sys.max_array_length then
    Error (Printf.sprintf "Sequence: m = %d exceeds the largest array" m)
  else if Array.length times <> n then
    Error (Printf.sprintf "Sequence: %d servers but %d times" n (Array.length times))
  else
    let rec check i =
      if i >= n then Ok ()
      else
        let server = servers.(i) and time = times.(i) in
        let last_time = if i = 0 then 0.0 else times.(i - 1) in
        if server < 0 || server >= m then
          Error (Printf.sprintf "Sequence: request %d on server %d outside [0, %d)" (i + 1) server m)
        else if not (Float.is_finite time) then
          Error (Printf.sprintf "Sequence: request %d has non-finite time" (i + 1))
        else if time <= last_time then
          Error
            (Printf.sprintf "Sequence: request %d at time %s does not strictly follow %s" (i + 1)
               (exact_string time) (exact_string last_time))
        else check (i + 1)
    in
    check 0

let of_columns ~m ~servers ~times =
  match validate ~m ~servers ~times with
  | Ok () -> Ok { m; server = servers; time = times }
  | Error _ as e -> e

let get_exn = function Ok t -> t | Error msg -> invalid_arg msg

let create_exn ~m requests =
  get_exn
    (of_columns ~m
       ~servers:(Array.map (fun (r : Request.t) -> r.server) requests)
       ~times:(Array.map (fun (r : Request.t) -> r.time) requests))

let of_list ~m pairs =
  let requests =
    Array.of_list (List.map (fun (server, time) -> Request.make ~server ~time) pairs)
  in
  create_exn ~m requests

let m t = t.m
let n t = Array.length t.server
let server t i = if i = 0 then 0 else t.server.(i - 1)
let time t i = if i = 0 then 0.0 else t.time.(i - 1)

let requests t = Array.init (n t) (fun i -> { Request.server = t.server.(i); time = t.time.(i) })
let horizon t = time t (n t)

let prevs t =
  let count = n t in
  let prev = Array.make (count + 1) (-1) and last_on = Array.make t.m (-1) in
  last_on.(0) <- 0;
  for i = 1 to count do
    let s = t.server.(i - 1) in
    prev.(i) <- last_on.(s);
    last_on.(s) <- i
  done;
  prev

(* canonical binary encoding for digest keying: [m], [n], then each
   real request as (server, time-bits).  Two instances agree on this
   encoding iff they are the same problem.  Written in place into one
   exact-size buffer, boxing no Int64. *)
let fingerprint t =
  let count = n t in
  let buf = Bytes.create (16 + (12 * count)) in
  Bytes.set_int64_le buf 0 (Int64.of_int t.m);
  Bytes.set_int64_le buf 8 (Int64.of_int count);
  for k = 0 to count - 1 do
    let off = 16 + (12 * k) in
    Bytes.set_int32_le buf off (Int32.of_int t.server.(k));
    Bytes.set_int64_le buf (off + 4) (Int64.bits_of_float t.time.(k))
  done;
  Bytes.unsafe_to_string buf

let sub t k =
  if k < 0 || k > n t then invalid_arg "Sequence.sub: index out of range";
  (* a prefix of a valid instance is valid: [get_exn] cannot raise *)
  get_exn (of_columns ~m:t.m ~servers:(Array.sub t.server 0 k) ~times:(Array.sub t.time 0 k))
