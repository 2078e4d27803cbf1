(* Zero-overhead observability: typed metrics, span tracing, and
   pluggable sinks.

   The design center is the cost of the *disabled* path.  Every probe
   ([incr], [add], [set_gauge], [spanned]) starts with a read of
   [state.recording] — one load and one branch, small
   enough for ocamlopt's cross-module inliner — and allocates nothing
   either way: counters are [Atomic.t] cells created at registration,
   gauges are a flat float array, and span events land in
   preallocated ring columns: a packed int key, a timestamp and a
   float value per event.
   With the default [Noop] sink the instrumented hot paths therefore
   keep their allocation budget exactly (a tier-1 test asserts 0 extra
   minor words per probe; bench/perf_gate.exe bounds the time
   cost).

   Multi-domain story: counters and span histograms are atomic, so
   totals are sums of per-task contributions and identical at any
   domain count.  Span events go to the buffer installed in the recording
   domain's DLS slot — the recorder's main ring on the installing
   domain, a positional per-task buffer inside a {!Parallel} job —
   and per-task buffers are merged back into the main ring in task
   order, so trace *structure* is independent of how many domains ran
   the job.  Events recorded on a domain with no installed buffer are
   counted as strays and dropped. *)

(* ------------------------------------------------------------ registry *)

(* Metric registration is module-init-time work (the instrumented
   libraries register their probes in top-level [let]s), so a mutex
   plus linear scans over small arrays is plenty; nothing here is on
   a hot path.  Re-registering a name returns the existing id. *)

let registry_lock = Mutex.create ()

let locked f =
  Mutex.lock registry_lock;
  match f () with
  | v ->
      Mutex.unlock registry_lock;
      v
  | exception e ->
      Mutex.unlock registry_lock;
      raise e

let find_name names name =
  let n = Array.length names in
  let rec go i = if i >= n then None else if String.equal names.(i) name then Some i else go (i + 1) in
  go 0

(* ------------------------------------------- name & label validation *)

(* Registry names are dot-namespaced ([streaming_dp.push]); the
   Prometheus renderer maps '.' to '_', so the accepted grammar is the
   text-format 0.0.4 metric-name grammar plus '.'.  '{' is rejected
   everywhere: labeled children are interned under the encoded name
   [base{k="v"}], so the brace opens a namespace reserved for them.
   Validating at registration means a bad name fails at [let]-time in
   the instrumented module, not at scrape time. *)

let is_name_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' | '.' -> true
  | _ -> false

let is_name_start = function '0' .. '9' | '.' -> false | c -> is_name_char c

let valid_metric_name s =
  String.length s > 0 && is_name_start s.[0] && String.for_all is_name_char s

let check_name fn s =
  if not (valid_metric_name s) then
    invalid_arg
      (Printf.sprintf "Obs.%s: invalid metric name %S (want [a-zA-Z_:][a-zA-Z0-9_:.]*)" fn s)

(* Label keys follow the strict Prometheus label grammar: no ':'
   (reserved for recording rules) and no '.'. *)
let is_label_char = function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false

let valid_label_key s =
  String.length s > 0
  && (match s.[0] with '0' .. '9' -> false | c -> is_label_char c)
  && String.for_all is_label_char s

let check_label_key fn s =
  if not (valid_label_key s) then
    invalid_arg (Printf.sprintf "Obs.%s: invalid label name %S (want [a-zA-Z_][a-zA-Z0-9_]*)" fn s)

(* ------------------------------------------------------ exported names *)

(* The one rule for the names a metric renders under in the
   Prometheus text format: the [dcache_] prefix, every character
   outside [a-zA-Z0-9_:] mapped to '_' (in a registry name that is
   only '.'), and the kind's suffix.  [Prometheus] renders with it,
   and registration claims every sample name it yields, so two
   registry names never render one family or one series. *)

type export_kind = Counter | Gauge | Summary

let exported_name kind base =
  let suffix = match kind with Counter -> "_total" | Gauge -> "" | Summary -> "_duration_seconds" in
  let sanitize c = match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c | _ -> '_' in
  "dcache_" ^ String.map sanitize base ^ suffix

(* rendered sample name -> what owns it ("counter", "gauge family",
   ...) and its registry name *)
let exported : (string, string * string) Hashtbl.t = Hashtbl.create 256

(* A summary's lines carry its family name (with the quantile label)
   and the [_sum] and [_count] series; a counter's or a gauge's only
   the family name.  A plain metric and a labeled family are distinct
   owners, so one base name cannot be both: they would render one
   family with inconsistent label sets.  Called under the registry
   lock, before the name is interned, so a refused name leaves no
   trace. *)
let claim_exported fn ?(labeled = false) kind name =
  let what =
    (match kind with Counter -> "counter" | Gauge -> "gauge" | Summary -> "span")
    ^ if labeled then " family" else ""
  in
  let family = exported_name kind name in
  let samples =
    match kind with
    | Counter | Gauge -> [ family ]
    | Summary -> [ family; family ^ "_sum"; family ^ "_count" ]
  in
  List.iter
    (fun sample ->
      match Hashtbl.find_opt exported sample with
      | Some (owner_what, owner) when not (String.equal owner_what what && String.equal owner name)
        ->
          invalid_arg
            (Printf.sprintf "Obs.%s: %s %S renders as %s, which %s %S already renders" fn what name
               sample owner_what owner)
      | Some _ | None -> ())
    samples;
  List.iter (fun sample -> Hashtbl.replace exported sample (what, name)) samples

type counter = int
type gauge = int
type span = int

let c_names = ref [||]
let c_cells : int Atomic.t array ref = ref [||]

let g_names = ref [||]
let g_cells : float array ref = ref [||]

let s_names = ref [||]

(* One log-scale duration histogram per span, created at
   registration: [spanned] records end-minus-begin into it, so
   quantile telemetry rides the spans that already exist.  Bucket
   bumps are commutative atomic int adds — no positional merge is
   needed for histograms, totals are width-independent by
   construction (the per-domain tick clock keeps the *durations*
   width-independent too; see Clock.ticks). *)
let s_histos : Histo_log.t array ref = ref [||]

let append cells v = cells := Array.append !cells [| v |]

(* Each registry's ids in name order, for the readback walk.
   Registries only append and [reset] keeps names, so an order goes
   stale only when its registry grew; it is rebuilt then, under the
   registry lock, and published as one new immutable array, because
   labeled children can be resolved on any domain. *)
let c_order = Atomic.make [||]
let g_order = Atomic.make [||]
let s_order = Atomic.make [||]

(* ----------------------------------------- labeled families: registry *)

(* A metric vector is a family of plain cells keyed by one label.
   Each child is a regular entry in the flat registries above,
   interned under the encoded name [base{k="v"}] (the value
   Prometheus-escaped at creation), so the hot-path bump on a
   resolved child is the same single atomic op as any plain metric
   and the 0-word Noop contract holds unchanged.  Because readbacks
   are name-sorted, the children of one family are contiguous and in
   a deterministic byte order no matter which domain resolved them
   first — exposition stays width-independent. *)

type vec_kind = Vec_counter | Vec_gauge

type vec = {
  v_name : string;
  v_key : string;
  v_kind : vec_kind;
  v_max : int;
  (* label value -> interned cell id: the O(1) lookup that keeps
     re-resolution cheap and child ids stable *)
  v_children : (string, int) Hashtbl.t;
}

type counter_vec = vec
type gauge_vec = vec

let vec_registry : vec list ref = ref []

let find_vec name = List.find_opt (fun v -> String.equal v.v_name name) !vec_registry

let same_vec_kind a b =
  match (a, b) with
  | Vec_counter, Vec_counter | Vec_gauge, Vec_gauge -> true
  | (Vec_counter | Vec_gauge), _ -> false


(* unlocked cell interning, shared by plain registration and child
   resolution (both already hold the registry lock) *)

(* the largest name id an event's packed key holds (see the event
   rings below) *)
let name_bits = 30
let max_name = (1 lsl name_bits) - 1

let check_room fn names =
  if Array.length names > max_name then invalid_arg ("Obs." ^ fn ^ ": registry full")

let counter_cell name =
  match find_name !c_names name with
  | Some id -> id
  | None ->
      check_room "counter" !c_names;
      append c_names name;
      append c_cells (Atomic.make 0);
      Array.length !c_names - 1

let gauge_cell name =
  match find_name !g_names name with
  | Some id -> id
  | None ->
      check_room "gauge" !g_names;
      append g_names name;
      g_cells := Array.append !g_cells [| 0.0 |];
      Array.length !g_names - 1

let counter name =
  check_name "counter" name;
  locked (fun () ->
      claim_exported "counter" Counter name;
      counter_cell name)

let gauge name =
  check_name "gauge" name;
  locked (fun () ->
      claim_exported "gauge" Gauge name;
      gauge_cell name)

let span_name name =
  check_name "span_name" name;
  locked (fun () ->
      match find_name !s_names name with
      | Some id -> id
      | None ->
          check_room "span_name" !s_names;
          claim_exported "span_name" Summary name;
          append s_names name;
          append s_histos (Histo_log.create ());
          Array.length !s_names - 1)

(* ---------------------------------------- labeled families: resolution *)

(* Cardinality is bounded per family: past [max_children] every new
   label value collapses into the reserved ["other"] child and bumps
   [obs.label_overflow], so a family registered with
   [max_children:k] owns at most [k + 1] cells, ever.  The overflow
   counter is bumped unconditionally (not probe-gated): resolution is
   registration-path work, and an overflow under [Noop] must still be
   visible once a sink is installed. *)

let default_max_children = 64

let overflow_label = "other"

let c_label_overflow = counter "obs.label_overflow"

let escape_label_value b s =
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s

let encode_child_name base key value =
  let b = Buffer.create (String.length base + 16) in
  Buffer.add_string b base;
  Buffer.add_char b '{';
  Buffer.add_string b key;
  Buffer.add_string b "=\"";
  escape_label_value b value;
  Buffer.add_string b "\"}";
  Buffer.contents b

let make_vec fn kind ?(max_children = default_max_children) name ~labels =
  check_name fn name;
  if max_children < 1 then invalid_arg (Printf.sprintf "Obs.%s: max_children must be >= 1" fn);
  let key =
    match labels with
    | [ key ] -> key
    | _ -> invalid_arg (Printf.sprintf "Obs.%s: need exactly one label" fn)
  in
  check_label_key fn key;
  locked (fun () ->
      match find_vec name with
      | Some v ->
          (* re-registration interns: same name + kind + key returns
             the existing family, so child ids resolved through either
             handle agree *)
          if not (same_vec_kind v.v_kind kind && String.equal v.v_key key) then
            invalid_arg
              (Printf.sprintf "Obs.%s: %S is already registered with a different kind or label"
                 fn name);
          v
      | None ->
          claim_exported fn ~labeled:true
            (match kind with Vec_counter -> Counter | Vec_gauge -> Gauge)
            name;
          let v =
            {
              v_name = name;
              v_key = key;
              v_kind = kind;
              v_max = max_children;
              v_children = Hashtbl.create 16;
            }
          in
          vec_registry := v :: !vec_registry;
          v)

let counter_vec ?max_children name ~labels = make_vec "counter_vec" Vec_counter ?max_children name ~labels

let gauge_vec ?max_children name ~labels = make_vec "gauge_vec" Vec_gauge ?max_children name ~labels

let vec_cell v value =
  let name = encode_child_name v.v_name v.v_key value in
  match v.v_kind with Vec_counter -> counter_cell name | Vec_gauge -> gauge_cell name

let intern v value =
  match Hashtbl.find_opt v.v_children value with
  | Some id -> id
  | None ->
      let id = vec_cell v value in
      Hashtbl.add v.v_children value id;
      id

let resolve v value =
  locked (fun () ->
      if Hashtbl.mem v.v_children value || Hashtbl.length v.v_children < v.v_max then
        intern v value
      else begin
        Atomic.incr !c_cells.(c_label_overflow);
        intern v overflow_label
      end)

let counter_with_label = resolve
let gauge_with_label = resolve

(* ---------------------------------------------------------- event rings *)

(* One preallocated ring per recording context, in three columns: a
   packed int key (the tag in the low 2 bits, the name id above it,
   the track from bit 32 up), the timestamp, and a flat float column
   for sampled values.  Recording an event is three array stores and
   an index bump; when the ring is full the oldest event is
   overwritten (the most recent window is the useful one for triage)
   and the loss is counted. *)

let tag_begin = 0
let tag_end = 1
let tag_sample = 2

(* Name ids and tracks must fit their fields of the key: a name id is
   a registry index, checked at interning (see [max_name]); a track is
   a job's task index + 1 or the GC bridge's [256 + domain], checked
   where a job begins and where an event is injected.  Both limits are
   2^30 - 1, so a key stays below 2^62. *)
let track_shift = 32
let max_track = (1 lsl (62 - track_shift)) - 1

let[@inline] pack ~track tag name = (track lsl track_shift) lor (name lsl 2) lor tag
let[@inline] key_tag k = k land 3
let[@inline] key_name k = (k lsr 2) land max_name
let[@inline] key_track k = k lsr track_shift

type buf = {
  b_clock : Clock.t;
  b_track : int;  (* chrome tid: 0 = installing domain, task index + 1 in a job *)
  b_cap : int;
  e_key : int array;
      (* tag, name and track per event: tasks keep their lane through
         the merge, the GC bridge injects high lanes *)
  e_ts : int array;
  e_value : float array;
  mutable b_start : int;
  mutable b_len : int;
  mutable b_lost : int;
}

let make_buf ~clock ~track cap =
  {
    b_clock = clock;
    b_track = track;
    b_cap = cap;
    e_key = Array.make cap 0;
    e_ts = Array.make cap 0;
    e_value = Array.make cap 0.0;
    b_start = 0;
    b_len = 0;
    b_lost = 0;
  }

(* the slot the next event goes to, taking the oldest one's when the
   ring is full *)
let slot b =
  if b.b_len < b.b_cap then begin
    let s = (b.b_start + b.b_len) mod b.b_cap in
    b.b_len <- b.b_len + 1;
    s
  end
  else begin
    let s = b.b_start in
    b.b_start <- (b.b_start + 1) mod b.b_cap;
    b.b_lost <- b.b_lost + 1;
    s
  end

let put_track b ~track tag name ts value =
  let s = slot b in
  b.e_key.(s) <- pack ~track tag name;
  b.e_ts.(s) <- ts;
  b.e_value.(s) <- value

let put b tag name ts value = put_track b ~track:b.b_track tag name ts value

let record_into b tag name value = put b tag name (b.b_clock ()) value

(* iterate the retained window oldest-first *)
let iter_buf b f =
  for k = 0 to b.b_len - 1 do
    let i = (b.b_start + k) mod b.b_cap in
    let key = b.e_key.(i) in
    f (key_tag key) (key_name key) b.e_ts.(i) b.e_value.(i) (key_track key)
  done

(* -------------------------------------------------------------- recorder *)

type recorder = { r_clock : Clock.t; r_main : buf; r_stray : int Atomic.t }

type sink = Noop | Recording of recorder

let default_capacity = 1 lsl 18

let recorder ?clock ?(capacity = default_capacity) () =
  if capacity < 16 then invalid_arg "Obs.recorder: capacity must be at least 16";
  let clock = match clock with Some c -> c | None -> Clock.monotonic () in
  { r_clock = clock; r_main = make_buf ~clock ~track:0 capacity; r_stray = Atomic.make 0 }

type state_t = { mutable recording : bool; mutable current : recorder option }

let state = { recording = false; current = None }

(* Which buffer this domain's span events go to.  [set_sink] installs
   the main ring on the calling domain; [Parallel.task] swaps in the
   task's positional buffer for the duration of the task body. *)
let current_buf : buf option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let probe () = state.recording

let sink () = match state.current with None -> Noop | Some r -> Recording r

let set_sink s =
  match s with
  | Noop ->
      state.recording <- false;
      state.current <- None;
      Domain.DLS.set current_buf None
  | Recording r ->
      state.current <- Some r;
      Domain.DLS.set current_buf (Some r.r_main);
      state.recording <- true

let events_lost r = r.r_main.b_lost + Atomic.get r.r_stray

(* ---------------------------------------------------------------- probes *)

let incr c = if state.recording then Atomic.incr !c_cells.(c)

let add c n = if state.recording then ignore (Atomic.fetch_and_add !c_cells.(c) n)

let stray () = match state.current with Some r -> Atomic.incr r.r_stray | None -> ()

let record tag name value =
  match Domain.DLS.get current_buf with Some b -> record_into b tag name value | None -> stray ()

(* The sample event of gauge [g], whose cell already holds the value:
   the value is stored into the ring from the cell, so no float is
   passed to a function on the way.  The one body of [set_gauge] and
   [set_gauge_cell]. *)
let record_sample g =
  match Domain.DLS.get current_buf with
  | Some b ->
      let ts = b.b_clock () in
      let s = slot b in
      b.e_key.(s) <- pack ~track:b.b_track tag_sample g;
      b.e_ts.(s) <- ts;
      b.e_value.(s) <- !g_cells.(g)
  | None -> stray ()

let set_gauge g v =
  if state.recording then begin
    !g_cells.(g) <- v;
    record_sample g
  end

let set_gauge_cell g cells k =
  if state.recording then begin
    !g_cells.(g) <- cells.(k);
    record_sample g
  end

(* Clock of the buffer this domain records into, falling back to the
   recorder's own clock off-buffer.  0 under Noop so callers can time
   unconditionally after one [probe] check. *)
let now_ns () =
  match Domain.DLS.get current_buf with
  | Some b -> b.b_clock ()
  | None -> ( match state.current with Some r -> Clock.now r.r_clock | None -> 0)

let observe_span_ns sp ns = if state.recording then Histo_log.record !s_histos.(sp) ns

let spanned sp f =
  if not state.recording then f ()
  else
    match Domain.DLS.get current_buf with
    | None ->
        stray ();
        f ()
    | Some b -> (
        (* exactly two clock reads per span — the begin/end events
           reuse them, and the delta feeds the span's histogram.
           Under the per-domain tick clock that delta counts the
           body's own clock reads, so histogram contents are
           width-independent. *)
        let t0 = b.b_clock () in
        put b tag_begin sp t0 0.0;
        match f () with
        | v ->
            let t1 = b.b_clock () in
            put b tag_end sp t1 0.0;
            Histo_log.record !s_histos.(sp) (t1 - t0);
            v
        | exception e ->
            let bt = Printexc.get_raw_backtrace () in
            let t1 = b.b_clock () in
            put b tag_end sp t1 0.0;
            Histo_log.record !s_histos.(sp) (t1 - t0);
            Printexc.raise_with_backtrace e bt)

(* Append an event with a caller-supplied timestamp and track into
   the main ring — the Runtime_events bridge lands GC phase spans
   here, on high track ids, already translated into the recorder's
   timebase. *)
let inject_event sp ~track ~is_begin ~ts =
  if track < 0 || track > max_track then invalid_arg "Obs.inject_event: track out of range";
  match state.current with
  | None -> ()
  | Some r -> put_track r.r_main ~track (if is_begin then tag_begin else tag_end) sp ts 0.0

(* -------------------------------------------------------------- readback *)

let counter_value c = Atomic.get !c_cells.(c)

let span_histo sp = !s_histos.(sp)

(* [names]'s ids in name order: the published order while it covers
   the registry, else a new one *)
let by_name names order =
  let ids = Atomic.get order in
  if Array.length ids = Array.length !names then ids
  else
    locked (fun () ->
        let names = !names in
        let ids = Array.init (Array.length names) Fun.id in
        Array.sort (fun a b -> String.compare names.(a) names.(b)) ids;
        Atomic.set order ids;
        ids)

(* Cells are read after the order: an order lists only ids interned
   before it was built, and their cells are in place by then. *)
let walk ~counter ~gauge ~span =
  let ids = by_name c_names c_order in
  let names = !c_names and cells = !c_cells in
  for k = 0 to Array.length ids - 1 do
    let id = ids.(k) in
    counter id names.(id) (Atomic.get cells.(id))
  done;
  let ids = by_name g_names g_order in
  let names = !g_names and cells = !g_cells in
  for k = 0 to Array.length ids - 1 do
    let id = ids.(k) in
    gauge id names.(id) cells.(id)
  done;
  let ids = by_name s_names s_order in
  let names = !s_names and histos = !s_histos in
  for k = 0 to Array.length ids - 1 do
    let id = ids.(k) in
    span id names.(id) histos.(id)
  done

let reset () =
  Array.iter (fun c -> Atomic.set c 0) !c_cells;
  g_cells := Array.map (fun _ -> 0.0) !g_cells;
  Array.iter Histo_log.reset !s_histos;
  match state.current with
  | None -> ()
  | Some r ->
      r.r_main.b_start <- 0;
      r.r_main.b_len <- 0;
      r.r_main.b_lost <- 0;
      Atomic.set r.r_stray 0

(* ------------------------------------------------------ parallel regions *)

module Parallel = struct
  type job = {
    j_span : span;
    j_task_span : span;
    j_wait_gauge : gauge;
    j_post_ns : int;
    j_bufs : buf array;
    j_rec : recorder;
  }

  (* Jobs have one buffer per *task* (sweeps can have thousands), so
     keep them small: a task records a wait sample, its own span, and
     a handful of nested solver spans.  Overflow drops the task's
     oldest events and is counted, like the main ring. *)
  let task_capacity = 64

  let job_begin ~span:sp ~task_span ~wait_gauge ~tasks =
    if tasks > max_track then invalid_arg "Obs.Parallel.job_begin: too many tasks";
    if not state.recording then None
    else
      match state.current with
      | None -> None
      | Some r ->
          record tag_begin sp 0.0;
          let bufs =
            Array.init tasks (fun i -> make_buf ~clock:r.r_clock ~track:(i + 1) task_capacity)
          in
          Some
            {
              j_span = sp;
              j_task_span = task_span;
              j_wait_gauge = wait_gauge;
              j_post_ns = Clock.now r.r_clock;
              j_bufs = bufs;
              j_rec = r;
            }

  let task j i f =
    let b = j.j_bufs.(i) in
    let saved = Domain.DLS.get current_buf in
    Domain.DLS.set current_buf (Some b);
    let started = Clock.now b.b_clock in
    let wait = float_of_int (started - j.j_post_ns) in
    (* a sample *event* on the task's own track; the gauge cell is
       never written — the cross-domain delta is width-dependent under
       the per-domain tick clock, and cells feed the byte-compared
       readbacks *)
    put b tag_sample j.j_wait_gauge started wait;
    put b tag_begin j.j_task_span started 0.0;
    let restore () =
      let ended = Clock.now b.b_clock in
      put b tag_end j.j_task_span ended 0.0;
      Histo_log.record !s_histos.(j.j_task_span) (ended - started);
      Domain.DLS.set current_buf saved
    in
    match f () with
    | v ->
        restore ();
        v
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        restore ();
        Printexc.raise_with_backtrace e bt

  (* Called on the submitting domain after the join: replay every
     task buffer into the main ring in task order, so the exported
     stream is independent of the domain count and chunk schedule. *)
  let job_end j =
    let main = j.j_rec.r_main in
    Array.iter
      (fun b ->
        (* keys carry their track, so events move over as they are *)
        for k = 0 to b.b_len - 1 do
          let i = (b.b_start + k) mod b.b_cap in
          let s = slot main in
          main.e_key.(s) <- b.e_key.(i);
          main.e_ts.(s) <- b.e_ts.(i);
          main.e_value.(s) <- b.e_value.(i)
        done;
        main.b_lost <- main.b_lost + b.b_lost)
      j.j_bufs;
    record tag_end j.j_span 0.0
end

(* -------------------------------------------------- export: chrome trace *)

(* The trace_event JSON array format chrome://tracing and Perfetto
   load: B/E duration events plus C counter samples, timestamps in
   microseconds.  Tracks ([tid]) are logical — 0 for the installing
   domain, task index + 1 inside a parallel job — never physical
   domain ids, so a trace's shape is domain-count independent.  The
   emitter keeps a per-track depth so a window truncated by ring
   overwrite still produces balanced B/E pairs. *)

let escape_json b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let us_of_ns ns = float_of_int ns /. 1e3

(* span-name/gauge-name lookup with a safe fallback: a trace written
   after [reset] races nothing, but a stale id must not raise *)
let name_of names id = if id >= 0 && id < Array.length names then names.(id) else "?"

type track_state = { t_id : int; mutable t_depth : int; mutable t_open : (int * int) list }
(* t_open: (span id, begin ts) stack, for closing truncated spans *)

let chrome_json r =
  let b = Buffer.create 65536 in
  let first = ref true in
  let event fields =
    if !first then first := false else Buffer.add_string b ",\n";
    Buffer.add_string b "    {";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string b ", ";
        Buffer.add_char b '"';
        Buffer.add_string b k;
        Buffer.add_string b "\": ";
        Buffer.add_string b v)
      fields;
    Buffer.add_char b '}'
  in
  let str s =
    let sb = Buffer.create 16 in
    Buffer.add_char sb '"';
    escape_json sb s;
    Buffer.add_char sb '"';
    Buffer.contents sb
  in
  let num f = Printf.sprintf "%.3f" f in
  (* JSON has no inf/nan: a non-finite gauge sample is written as null *)
  let sample_value v = if Float.is_finite v then num v else "null" in
  Buffer.add_string b "{\n  \"traceEvents\": [\n";
  let tracks = ref [] in
  let track id =
    match List.find_opt (fun t -> t.t_id = id) !tracks with
    | Some t -> t
    | None ->
        let t = { t_id = id; t_depth = 0; t_open = [] } in
        tracks := t :: !tracks;
        t
  in
  let last_ts = ref 0 in
  iter_buf r.r_main (fun tag name ts value track_id ->
      let t = track track_id in
      if ts > !last_ts then last_ts := ts;
      if tag = tag_begin then begin
        t.t_depth <- t.t_depth + 1;
        t.t_open <- (name, ts) :: t.t_open;
        event
          [
            ("name", str (name_of !s_names name));
            ("ph", str "B");
            ("ts", num (us_of_ns ts));
            ("pid", "1");
            ("tid", string_of_int t.t_id);
          ]
      end
      else if tag = tag_end then begin
        (* an E whose B was overwritten by the ring would corrupt
           nesting: drop it *)
        if t.t_depth > 0 then begin
          t.t_depth <- t.t_depth - 1;
          (t.t_open <- (match t.t_open with _ :: rest -> rest | [] -> []));
          event
            [
              ("name", str (name_of !s_names name));
              ("ph", str "E");
              ("ts", num (us_of_ns ts));
              ("pid", "1");
              ("tid", string_of_int t.t_id);
            ]
        end
      end
      else
        event
          [
            ("name", str (name_of !g_names name));
            ("ph", str "C");
            ("ts", num (us_of_ns ts));
            ("pid", "1");
            ("tid", string_of_int t.t_id);
            ("args", Printf.sprintf "{\"value\": %s}" (sample_value value));
          ]);
  (* close spans the window ended inside of *)
  List.iter
    (fun t ->
      List.iter
        (fun (name, _) ->
          event
            [
              ("name", str (name_of !s_names name));
              ("ph", str "E");
              ("ts", num (us_of_ns !last_ts));
              ("pid", "1");
              ("tid", string_of_int t.t_id);
            ])
        t.t_open)
    !tracks;
  (* final counter samples so totals are visible in the viewer *)
  walk
    ~counter:(fun _ cname total ->
      event
        [
          ("name", str cname);
          ("ph", str "C");
          ("ts", num (us_of_ns !last_ts));
          ("pid", "1");
          ("tid", "0");
          ("args", Printf.sprintf "{\"value\": %d}" total);
        ])
    ~gauge:(fun _ _ _ -> ())
    ~span:(fun _ _ _ -> ());
  Buffer.add_string b "\n  ],\n";
  Buffer.add_string b "  \"displayTimeUnit\": \"ms\",\n";
  Buffer.add_string b
    (Printf.sprintf "  \"otherData\": {\"schema\": \"dcache-trace/1\", \"eventsLost\": %d}\n"
       (events_lost r));
  Buffer.add_string b "}\n";
  Buffer.contents b

let write_chrome_trace r ~path =
  Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc (chrome_json r))

(* ------------------------------------------------------------- wiring *)

(* `--trace FILE` / DCACHE_TRACE=FILE in the executables land here: a
   fresh recording sink now, one trace written at exit. *)

let trace_at_exit = ref None

(* the output is opened here, before any work, so an unwritable path
   fails the run up front rather than after it *)
let enable_file_trace path =
  let oc = Out_channel.open_text path in
  let r = recorder () in
  set_sink (Recording r);
  (match !trace_at_exit with
  | Some (_, earlier) -> Out_channel.close_noerr earlier
  | None -> at_exit (fun () ->
        match !trace_at_exit with
        | Some (r, oc) ->
            Out_channel.output_string oc (chrome_json r);
            Out_channel.close oc
        | None -> ()));
  trace_at_exit := Some (r, oc)

let env_var = "DCACHE_TRACE"

let install_from_env () =
  match Sys.getenv_opt env_var with
  | Some path when String.length (String.trim path) > 0 -> enable_file_trace (String.trim path)
  | Some _ | None -> ()
