type t = {
  m : int;
  server : int array;  (* index 0 = r_0 on server 0 *)
  time : float array;
  prev : int array;  (* p(i); -1 encodes the dummy request at -inf *)
  sigma : float array;
}

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
            (Printf.sprintf "Sequence: request %d at time %g does not strictly follow %g" (i + 1)
               time last_time)
        else check (i + 1)
    in
    check 0

(* Copies validated columns behind r_0 and derives p(i) and sigma_i. *)
let build ~m ~servers ~times =
  let n = Array.length servers in
  let server = Array.make (n + 1) 0 and time = Array.make (n + 1) 0.0 in
  Array.blit servers 0 server 1 n;
  Array.blit times 0 time 1 n;
  let prev = Array.make (n + 1) (-1) and sigma = Array.make (n + 1) infinity in
  let last_on = Array.make m (-1) in
  sigma.(0) <- 0.0;
  for i = 0 to n do
    let s = server.(i) in
    let p = last_on.(s) in
    prev.(i) <- p;
    if i > 0 && p >= 0 then sigma.(i) <- time.(i) -. time.(p);
    last_on.(s) <- i
  done;
  { m; server; time; prev; sigma }

let of_columns ~m ~servers ~times =
  match validate ~m ~servers ~times with
  | Ok () -> Ok (build ~m ~servers ~times)
  | Error _ as e -> e

let create ~m requests =
  of_columns ~m
    ~servers:(Array.map (fun (r : Request.t) -> r.server) requests)
    ~times:(Array.map (fun (r : Request.t) -> r.time) requests)

let get_exn = function Ok t -> t | Error msg -> invalid_arg msg
let create_exn ~m requests = get_exn (create ~m requests)

let of_list ~m pairs =
  let requests =
    Array.of_list (List.map (fun (server, time) -> Request.make ~server ~time) pairs)
  in
  create_exn ~m requests

let m t = t.m
let n t = Array.length t.server - 1
let server t i = t.server.(i)
let time t i = t.time.(i)
(* in-range by construction: the public [request] adds the bound check
   (and documents the raise); internal traversals must not inherit it *)
let unsafe_request t i = { Request.server = t.server.(i); time = t.time.(i) }

let request t i =
  if i < 1 || i > n t then invalid_arg "Sequence.request: index out of range";
  unsafe_request t i

let requests t = Array.init (n t) (fun i -> unsafe_request t (i + 1))
let horizon t = t.time.(n t)
let prev_same_server t i = t.prev.(i)
let sigma t i = t.sigma.(i)

(* canonical binary encoding for digest keying: [m], [n], then each
   real request as (server, time-bits).  Every other field of [t] is
   derived from these, so two instances agree on this encoding iff
   they are the same problem.  Written in place into one exact-size
   buffer, boxing no Int64. *)
let fingerprint t =
  let count = n t in
  let buf = Bytes.create (16 + (12 * count)) in
  Bytes.set_int64_le buf 0 (Int64.of_int t.m);
  Bytes.set_int64_le buf 8 (Int64.of_int count);
  for i = 1 to count do
    let off = 4 + (12 * i) in
    Bytes.set_int32_le buf off (Int32.of_int t.server.(i));
    Bytes.set_int64_le buf (off + 4) (Int64.bits_of_float t.time.(i))
  done;
  Bytes.unsafe_to_string buf

let sub t k =
  if k < 0 || k > n t then invalid_arg "Sequence.sub: index out of range";
  (* a prefix of a valid instance is valid: [get_exn] cannot raise *)
  get_exn (of_columns ~m:t.m ~servers:(Array.sub t.server 1 k) ~times:(Array.sub t.time 1 k))

let pp ppf t =
  Format.fprintf ppf "@[<v>m=%d, n=%d" t.m (n t);
  for i = 1 to n t do
    Format.fprintf ppf "@,  r%d = %a" i Request.pp (unsafe_request t i)
  done;
  Format.fprintf ppf "@]"