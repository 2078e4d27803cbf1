(* Registered once at module init; the steady-state [observe] pays
   one [Obs.probe ()] for its stores and a second only on the rare
   window-close path. *)
let c_requests = Obs.counter "audit.requests"
let c_windows = Obs.counter "audit.windows"
let c_violations = Obs.counter "audit.bound_violations"
let g_prefix_ratio = Obs.gauge "audit.prefix_ratio"
let g_window_ratio = Obs.gauge "audit.window_ratio"
let g_window_regret = Obs.gauge "audit.window_regret"

(* Per-item families for multi-stream auditing ([dcache serve-metrics]
   runs one auditor per item): distinct base names so the flat
   aggregates above keep their own Prometheus families.  Children are
   resolved once in [create] — never on the observe path. *)
let v_item_window_ratio = Obs.gauge_vec "audit.item_window_ratio" ~labels:[ "item" ]
let v_item_windows = Obs.counter_vec "audit.item_windows" ~labels:[ "item" ]

(* Window-ratio and regret distributions ride the span-duration
   histograms (the one Histo_log surface, exported to Prometheus as
   summaries).  Unit: nano — 1 ratio or cost unit = 1e9 ticks — so
   the [_duration_seconds] summaries read back directly in ratio and
   cost units.  Negative regret (the online policy beating the
   windowed optimum deltas) clamps to the 0 bucket; the exact signed
   value stays on the [audit.window_regret] gauge. *)
let sp_window_ratios = Obs.span_name "audit.window_ratios"
let sp_window_regret = Obs.span_name "audit.window_regret"

let nano_ticks v = int_of_float (Float.max 0.0 v *. 1e9)

type window = {
  index : int;
  first : int;
  last : int;
  online : float;
  opt : float;
  ratio : float;
  regret : float;
  prefix_ratio : float;
}

type witness = { at : int; w_online : float; w_opt : float; w_ratio : float }

type t = {
  window_size : int;
  bound : float;
  epsilon : float;
  (* cumulative costs of the last observation *)
  mutable n : int;
  mutable online : float;
  mutable opt : float;
  (* cumulative costs at the last window boundary *)
  mutable base_online : float;
  mutable base_opt : float;
  mutable win_first : int;  (* first request index of the open window *)
  mutable windows : int;  (* closed so far *)
  (* last closed window, unpacked into flat fields so closing a
     window allocates nothing; [last_window] materialises on demand *)
  mutable lw_first : int;
  mutable lw_last : int;
  mutable lw_online : float;
  mutable lw_opt : float;
  mutable lw_ratio : float;
  mutable lw_regret : float;
  mutable lw_prefix_ratio : float;
  (* bound monitor *)
  mutable violations : int;
  wit : witness option array;  (* ring, most recent kept *)
  mutable wit_pos : int;
  mutable flushed : bool;
  (* labeled children for this stream's item, resolved at [create] *)
  item_ratio : Obs.gauge option;
  item_windows : Obs.counter option;
}

let ratio ~online ~opt = if opt > 0.0 then online /. opt else 1.0

let create ?(window_size = 64) ?(bound = 3.0) ?(epsilon = 1e-6) ?(witness_capacity = 16) ?item ()
    =
  if window_size < 1 then invalid_arg "Audit.create: window_size must be positive";
  if not (bound > 0.0) then invalid_arg "Audit.create: bound must be positive";
  if epsilon < 0.0 then invalid_arg "Audit.create: epsilon must be non-negative";
  if witness_capacity < 1 then invalid_arg "Audit.create: witness_capacity must be positive";
  {
    window_size;
    bound;
    epsilon;
    n = 0;
    online = 0.0;
    opt = 0.0;
    base_online = 0.0;
    base_opt = 0.0;
    win_first = 1;
    windows = 0;
    lw_first = 0;
    lw_last = 0;
    lw_online = 0.0;
    lw_opt = 0.0;
    lw_ratio = 1.0;
    lw_regret = 0.0;
    lw_prefix_ratio = 1.0;
    violations = 0;
    wit = Array.make witness_capacity None;
    wit_pos = 0;
    flushed = false;
    item_ratio = Option.map (Obs.gauge_with_label v_item_window_ratio) item;
    item_windows = Option.map (Obs.counter_with_label v_item_windows) item;
  }

let close_window t =
  let w_online = t.online -. t.base_online in
  let w_opt = t.opt -. t.base_opt in
  let r = ratio ~online:w_online ~opt:w_opt in
  let regret = w_online -. w_opt in
  t.lw_first <- t.win_first;
  t.lw_last <- t.n;
  t.lw_online <- w_online;
  t.lw_opt <- w_opt;
  t.lw_ratio <- r;
  t.lw_regret <- regret;
  t.lw_prefix_ratio <- ratio ~online:t.online ~opt:t.opt;
  t.windows <- t.windows + 1;
  t.base_online <- t.online;
  t.base_opt <- t.opt;
  t.win_first <- t.n + 1;
  if Obs.probe () then begin
    Obs.incr c_windows;
    Obs.set_gauge g_window_ratio r;
    Obs.set_gauge g_window_regret regret;
    Obs.observe_span_ns sp_window_ratios (nano_ticks r);
    Obs.observe_span_ns sp_window_regret (nano_ticks regret);
    (match t.item_windows with Some c -> Obs.incr c | None -> ());
    match t.item_ratio with Some g -> Obs.set_gauge g r | None -> ()
  end

let observe t ~online ~opt =
  if t.flushed then invalid_arg "Audit.observe: auditor already flushed";
  t.n <- t.n + 1;
  t.online <- online;
  t.opt <- opt;
  let r = ratio ~online ~opt in
  let violated = opt > 0.0 && online > (t.bound +. t.epsilon) *. opt in
  if violated then begin
    (* rare by Theorem 3 — any entry here is an implementation bug,
       so the witness allocation is fine *)
    t.violations <- t.violations + 1;
    t.wit.(t.wit_pos) <- Some { at = t.n; w_online = online; w_opt = opt; w_ratio = r };
    t.wit_pos <- (t.wit_pos + 1) mod Array.length t.wit
  end;
  if Obs.probe () then begin
    Obs.incr c_requests;
    Obs.set_gauge g_prefix_ratio r;
    if violated then Obs.incr c_violations
  end;
  if t.n - t.win_first + 1 >= t.window_size then begin
    close_window t;
    true
  end
  else false

let flush t =
  if t.flushed then invalid_arg "Audit.flush: auditor already flushed";
  t.flushed <- true;
  if t.n >= t.win_first then begin
    close_window t;
    true
  end
  else false

let last_window t =
  if t.windows = 0 then None
  else
    Some
      {
        index = t.windows - 1;
        first = t.lw_first;
        last = t.lw_last;
        online = t.lw_online;
        opt = t.lw_opt;
        ratio = t.lw_ratio;
        regret = t.lw_regret;
        prefix_ratio = t.lw_prefix_ratio;
      }

let n t = t.n
let windows_closed t = t.windows
let prefix_online t = t.online
let prefix_opt t = t.opt
let prefix_ratio t = if t.n = 0 then 1.0 else ratio ~online:t.online ~opt:t.opt
let violations t = t.violations
let bound t = t.bound

let witnesses t =
  (* ring order: oldest retained first *)
  let cap = Array.length t.wit in
  let out = ref [] in
  for k = 1 to cap do
    match t.wit.((t.wit_pos + cap - k) mod cap) with
    | None -> ()
    | Some w -> out := w :: !out
  done;
  !out
