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

(* Every float of the state lives in [fl], at these indices: storing a
   float into a mutable float field of a record that also holds ints
   boxes it, a store into a float array does not.  The cumulative
   costs of the last observation and their ratio, the cumulative costs
   at the last window boundary, and the last closed window's five
   figures (unpacked so that closing a window allocates nothing;
   [last_window] materialises them on demand).  The gauges read their
   values from these cells ([Obs.set_gauge_cell]): a float passed to
   [Obs.set_gauge] is boxed, as it crosses into another module. *)
let f_online = 0
let f_opt = 1
let f_base_online = 2
let f_base_opt = 3
let f_lw_online = 4
let f_lw_opt = 5
let f_lw_ratio = 6
let f_lw_regret = 7
let f_lw_prefix_ratio = 8
let f_ratio = 9

type t = {
  window_size : int;
  bound : float;
  fl : float array;
  mutable n : int;  (* observations so far *)
  mutable win_first : int;  (* first request index of the open window *)
  mutable windows : int;  (* closed so far *)
  mutable lw_first : int;  (* the last closed window's requests *)
  mutable lw_last : int;
  (* bound monitor *)
  mutable violations : int;
  wit : witness option array;  (* ring, most recent kept *)
  mutable wit_pos : int;
  mutable flushed : bool;
  (* labeled children for this stream's item, resolved at [create] *)
  item_ratio : Obs.gauge option;
  item_windows : Obs.counter option;
}

let[@inline] ratio ~online ~opt = if opt > 0.0 then online /. opt else 1.0

(* the slack before the bound monitor fires, absorbing float rounding
   in the cost recurrences *)
let epsilon = 1e-6

let create ?(window_size = 64) ?(bound = 3.0) ?(witness_capacity = 16) ?item () =
  if window_size < 1 then invalid_arg "Audit.create: window_size must be positive";
  if not (bound > 0.0) then invalid_arg "Audit.create: bound must be positive";
  if witness_capacity < 1 then invalid_arg "Audit.create: witness_capacity must be positive";
  let fl = Array.make 10 0.0 in
  fl.(f_lw_ratio) <- 1.0;
  fl.(f_lw_prefix_ratio) <- 1.0;
  fl.(f_ratio) <- 1.0;
  {
    window_size;
    bound;
    fl;
    n = 0;
    win_first = 1;
    windows = 0;
    lw_first = 0;
    lw_last = 0;
    violations = 0;
    wit = Array.make witness_capacity None;
    wit_pos = 0;
    flushed = false;
    item_ratio = Option.map (Obs.gauge_with_label v_item_window_ratio) item;
    item_windows = Option.map (Obs.counter_with_label v_item_windows) item;
  }

let close_window t =
  let fl = t.fl in
  let online = fl.(f_online) and opt = fl.(f_opt) in
  let w_online = online -. fl.(f_base_online) in
  let w_opt = opt -. fl.(f_base_opt) in
  let r = ratio ~online:w_online ~opt:w_opt in
  let regret = w_online -. w_opt in
  t.lw_first <- t.win_first;
  t.lw_last <- t.n;
  fl.(f_lw_online) <- w_online;
  fl.(f_lw_opt) <- w_opt;
  fl.(f_lw_ratio) <- r;
  fl.(f_lw_regret) <- regret;
  fl.(f_lw_prefix_ratio) <- ratio ~online ~opt;
  t.windows <- t.windows + 1;
  fl.(f_base_online) <- online;
  fl.(f_base_opt) <- opt;
  t.win_first <- t.n + 1;
  if Obs.probe () then begin
    Obs.incr c_windows;
    Obs.set_gauge_cell g_window_ratio fl f_lw_ratio;
    Obs.set_gauge_cell g_window_regret fl f_lw_regret;
    Obs.observe_span_ns sp_window_ratios (nano_ticks r);
    Obs.observe_span_ns sp_window_regret (nano_ticks regret);
    (match t.item_windows with Some c -> Obs.incr c | None -> ());
    match t.item_ratio with Some g -> Obs.set_gauge_cell g fl f_lw_ratio | None -> ()
  end

(* The one body of [observe] and [observe_cells]: inlined into the
   latter, it reads the two costs unboxed from their cells *)
let[@inline] observe_costs t online opt =
  if t.flushed then invalid_arg "Audit.observe: auditor already flushed";
  (* an overflowed cost would reach the gauges as nan or inf *)
  if not (Float.is_finite online && Float.is_finite opt) then
    invalid_arg "Audit.observe: costs must be finite";
  t.n <- t.n + 1;
  t.fl.(f_online) <- online;
  t.fl.(f_opt) <- opt;
  let r = ratio ~online ~opt in
  t.fl.(f_ratio) <- r;
  let violated = opt > 0.0 && online > (t.bound +. epsilon) *. opt in
  if violated then begin
    (* rare by Theorem 3 — any entry here is an implementation bug,
       so the witness allocation is fine *)
    t.violations <- t.violations + 1;
    t.wit.(t.wit_pos) <- Some { at = t.n; w_online = online; w_opt = opt; w_ratio = r };
    t.wit_pos <- (t.wit_pos + 1) mod Array.length t.wit
  end;
  if Obs.probe () then begin
    Obs.incr c_requests;
    Obs.set_gauge_cell g_prefix_ratio t.fl f_ratio;
    if violated then Obs.incr c_violations
  end;
  if t.n - t.win_first + 1 >= t.window_size then begin
    close_window t;
    true
  end
  else false

let observe t ~online ~opt = observe_costs t online opt
let observe_cells t costs = observe_costs t costs.(0) costs.(1)

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
        online = t.fl.(f_lw_online);
        opt = t.fl.(f_lw_opt);
        ratio = t.fl.(f_lw_ratio);
        regret = t.fl.(f_lw_regret);
        prefix_ratio = t.fl.(f_lw_prefix_ratio);
      }

let n t = t.n
let windows_closed t = t.windows
let prefix_online t = t.fl.(f_online)
let prefix_opt t = t.fl.(f_opt)
let violations t = t.violations

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
