(* A small deterministic domain pool.

   Helpers are plain [Domain.t]s coordinated with one mutex and two
   condition variables; work arrives as a range of chunk indices
   pulled off a shared counter under the lock.  The submitting thread
   participates in its own job, so a pool of [domains = 1] runs the
   whole job inline with zero helpers and zero synchronisation
   overhead beyond one lock round-trip.

   Determinism: results are collected positionally (task [i] writes
   slot [i] of the output, never an accumulator), so as long as each
   task is a pure function of its index — randomness via
   [Rng.derive parent i], no shared mutable state — the output is
   byte-identical at any domain count and any chunk schedule. *)

module Obs = Dcache_obs.Obs

(* Trace probes: one span for the whole parallel region, one per
   task, and a queue-wait gauge (ns between job post and task start).
   Task events land in positional per-task buffers keyed by element
   index — never by chunk or domain, both of which depend on the
   domain count — so the merged trace has the same structure at any
   width.  All of it is dead (a [None] job) under the Noop sink. *)
let sp_job = Obs.span_name "pool.parallel"
let sp_task = Obs.span_name "pool.task"
let g_queue_wait = Obs.gauge "pool.queue_wait_ns"

type t = {
  lock : Mutex.t;
  ready : Condition.t; (* a new job was posted, or shutdown *)
  finished : Condition.t; (* the last helper left the current job *)
  domains : int; (* helpers + the submitting thread *)
  mutable job : int -> unit; (* chunk body of the current job *)
  mutable gen : int; (* bumped once per job; helpers key on it *)
  mutable next_chunk : int;
  mutable chunk_limit : int;
  mutable busy : int; (* helpers currently inside the job *)
  mutable in_job : bool; (* submitter is inside [run_chunks] *)
  mutable failure : (exn * Printexc.raw_backtrace) option;
  mutable stopped : bool;
  mutable helpers : unit Domain.t array;
}

let max_domains = 64

let clamp d = if d < 1 then 1 else if d > max_domains then max_domains else d

let env_domains () =
  match Sys.getenv_opt "DCACHE_DOMAINS" with
  | None -> None
  | Some s -> ( match int_of_string_opt (String.trim s) with
    | Some d when d >= 1 -> Some (clamp d)
    | Some _ | None -> None)

let override = ref None

let set_default_domains d =
  if d < 1 then invalid_arg "Pool.set_default_domains: need at least one domain";
  override := Some (clamp d)

let default_domains () =
  match !override with
  | Some d -> d
  | None -> (
      match env_domains () with
      | Some d -> d
      | None -> clamp (Domain.recommended_domain_count ()))

(* Pull chunks until the window is empty.  Called (and returns) with
   [t.lock] held; the lock is dropped around each chunk body. *)
let rec drain t =
  if t.next_chunk < t.chunk_limit then begin
    let c = t.next_chunk in
    t.next_chunk <- c + 1;
    let f = t.job in
    Mutex.unlock t.lock;
    (match f c with
    | () -> ()
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        Mutex.lock t.lock;
        if Option.is_none t.failure then t.failure <- Some (e, bt);
        Mutex.unlock t.lock);
    Mutex.lock t.lock;
    drain t
  end

let rec helper_loop t seen_gen =
  Mutex.lock t.lock;
  while (not t.stopped) && t.gen = seen_gen do
    Condition.wait t.ready t.lock
  done;
  if t.stopped then Mutex.unlock t.lock
  else begin
    let gen = t.gen in
    t.busy <- t.busy + 1;
    drain t;
    t.busy <- t.busy - 1;
    if t.busy = 0 && t.next_chunk >= t.chunk_limit then Condition.broadcast t.finished;
    Mutex.unlock t.lock;
    helper_loop t gen
  end

let create ?domains () =
  let domains =
    match domains with
    | Some d ->
        if d < 1 then invalid_arg "Pool.create: need at least one domain";
        clamp d
    | None -> default_domains ()
  in
  let t =
    {
      lock = Mutex.create ();
      ready = Condition.create ();
      finished = Condition.create ();
      domains;
      job = ignore;
      gen = 0;
      next_chunk = 0;
      chunk_limit = 0;
      busy = 0;
      in_job = false;
      failure = None;
      stopped = false;
      helpers = [||];
    }
  in
  t.helpers <- Array.init (domains - 1) (fun _ -> Domain.spawn (fun () -> helper_loop t 0));
  t

let domains t = t.domains

let shutdown t =
  Mutex.lock t.lock;
  if t.stopped then Mutex.unlock t.lock
  else begin
    t.stopped <- true;
    Condition.broadcast t.ready;
    Mutex.unlock t.lock;
    Array.iter Domain.join t.helpers;
    t.helpers <- [||]
  end

let run_chunks t ~chunks f =
  if chunks > 0 then begin
    Mutex.lock t.lock;
    if t.stopped then begin
      Mutex.unlock t.lock;
      invalid_arg "Pool: pool already shut down"
    end;
    if t.in_job then begin
      Mutex.unlock t.lock;
      invalid_arg "Pool: nested parallel region on the same pool"
    end;
    t.in_job <- true;
    t.job <- f;
    t.next_chunk <- 0;
    t.chunk_limit <- chunks;
    t.failure <- None;
    t.gen <- t.gen + 1;
    Condition.broadcast t.ready;
    drain t;
    while t.busy > 0 do
      Condition.wait t.finished t.lock
    done;
    t.job <- ignore;
    t.in_job <- false;
    let failure = t.failure in
    t.failure <- None;
    Mutex.unlock t.lock;
    match failure with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ()
  end

let parallel_init ?chunk t n f =
  if n < 0 then invalid_arg "Pool.parallel_init: negative length";
  if n = 0 then [||]
  else begin
    let chunk =
      match chunk with
      | Some c ->
          if c < 1 then invalid_arg "Pool.parallel_init: chunk must be positive";
          c
      | None ->
          (* ~4 chunks per domain balances stragglers against queue
             traffic; the choice cannot affect results, only timing *)
          let c = n / (t.domains * 4) in
          if c < 1 then 1 else c
    in
    let nchunks = ((n - 1) / chunk) + 1 in
    let out = Array.make n None in
    let job =
      Obs.Parallel.job_begin ~span:sp_job ~task_span:sp_task ~wait_gauge:g_queue_wait ~tasks:n
    in
    let task =
      match job with
      | None -> f
      | Some j -> fun i -> Obs.Parallel.task j i (fun () -> f i)
    in
    let finish () = match job with None -> () | Some j -> Obs.Parallel.job_end j in
    (match
       run_chunks t ~chunks:nchunks (fun k ->
           let lo = k * chunk in
           let hi = min n (lo + chunk) - 1 in
           for i = lo to hi do
             out.(i) <- Some (task i)
           done)
     with
    | () -> finish ()
    | exception e ->
        (* merge whatever completed: a partial trace is exactly what
           failure triage wants *)
        let bt = Printexc.get_raw_backtrace () in
        finish ();
        Printexc.raise_with_backtrace e bt);
    Array.map (function Some v -> v | None -> assert false) out
  end

let parallel_map ?chunk t f a = parallel_init ?chunk t (Array.length a) (fun i -> f a.(i))

(* ------------------------------------------------------- shared pool *)

let shared = ref None

let get () =
  let want = default_domains () in
  match !shared with
  | Some p when p.domains = want && not p.stopped -> p
  | prior ->
      (match prior with Some p -> shutdown p | None -> ());
      let p = create ~domains:want () in
      shared := Some p;
      p

let with_pool ?domains f =
  let p = create ?domains () in
  Fun.protect ~finally:(fun () -> shutdown p) (fun () -> f p)
