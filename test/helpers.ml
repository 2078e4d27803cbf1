(* Shared test utilities: tolerant float checks and qcheck generators
   for instances and cost models. *)

open Dcache_core

let approx = Dcache_prelude.Float_cmp.approx_eq

let check_float ?(eps = 1e-9) msg expected actual =
  if not (approx ~eps expected actual) then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

let check_le msg a b =
  if not (Dcache_prelude.Float_cmp.approx_le a b) then
    Alcotest.failf "%s: %.12g should be <= %.12g" msg a b

let case name f = Alcotest.test_case name `Quick f

(* one of [Online_policies.all_deterministic]'s outcomes, by name *)
let policy name model seq =
  List.find
    (fun (o : Dcache_baselines.Online_policies.outcome) -> o.name = name)
    (Dcache_baselines.Online_policies.all_deterministic model seq)

(* qcheck counterexample printers for the two halves of a problem *)
let pp_model ppf (model : Cost_model.t) =
  if model.upload = infinity then Format.fprintf ppf "{mu=%g; lambda=%g}" model.mu model.lambda
  else Format.fprintf ppf "{mu=%g; lambda=%g; beta=%g}" model.mu model.lambda model.upload

let pp_seq ppf seq =
  Format.fprintf ppf "@[<v>m=%d, n=%d" (Sequence.m seq) (Sequence.n seq);
  for i = 1 to Sequence.n seq do
    Format.fprintf ppf "@,  r%d = r@(s%d, %g)" i (Sequence.server seq i) (Sequence.time seq i)
  done;
  Format.fprintf ppf "@]"

(* Words allocated by [f ()] per request: minor + major - promoted,
   since arrays this large are allocated directly in the major heap. *)
let words_per_request ~n f =
  let words () =
    let _, promoted, major = Gc.counters () in
    Gc.minor_words () +. major -. promoted
  in
  let probe =
    let a = words () in
    words () -. a
  in
  let before = words () in
  ignore (Sys.opaque_identity (f ()));
  (words () -. before -. probe) /. float_of_int n

(* The registry read back through [Obs.walk] as name-sorted lists, for
   the tests that look a metric up by name *)
let counter_totals () =
  let acc = ref [] in
  Dcache_obs.Obs.walk
    ~counter:(fun _ name v -> acc := (name, v) :: !acc)
    ~gauge:(fun _ _ _ -> ())
    ~span:(fun _ _ _ -> ());
  List.rev !acc

let gauge_values () =
  let acc = ref [] in
  Dcache_obs.Obs.walk
    ~counter:(fun _ _ _ -> ())
    ~gauge:(fun _ name v -> acc := (name, v) :: !acc)
    ~span:(fun _ _ _ -> ());
  List.rev !acc

(* one gauge's last-written value, read through [Obs.walk] *)
let gauge_value (g : Dcache_obs.Obs.gauge) =
  let value = ref nan in
  Dcache_obs.Obs.walk
    ~counter:(fun _ _ _ -> ())
    ~gauge:(fun id _ v -> if (id :> int) = (g :> int) then value := v)
    ~span:(fun _ _ _ -> ());
  !value

let span_durations () =
  let acc = ref [] in
  Dcache_obs.Obs.walk
    ~counter:(fun _ _ _ -> ())
    ~gauge:(fun _ _ _ -> ())
    ~span:(fun _ name h -> acc := (name, h) :: !acc);
  List.rev !acc

(* The bench ledger's four (m, arrival, placement) workloads, at the
   size the allocation budgets measure *)
let ledger_workloads =
  let open Dcache_workload in
  [
    ( "mobility-ring-m8",
      8,
      Arrival.Poisson { rate = 2.0 },
      Placement.Mobility { stay = 0.9; ring = true } );
    ("zipf-m64", 64, Arrival.Poisson { rate = 1.0 }, Placement.Zipf { exponent = 1.0 });
    ("bursty-m16", 16, Arrival.Pareto { shape = 1.5; scale = 0.25 }, Placement.Uniform_random);
    ("serve-batch", 4, Arrival.Poisson { rate = 1.0 }, Placement.Uniform_random);
  ]

let budget_n = 20_000

(* [f filename] on a temporary file holding [text] *)
let with_temp_file text f =
  let filename = Filename.temp_file "dcache" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove filename)
    (fun () ->
      Out_channel.with_open_bin filename (fun oc -> output_string oc text);
      f filename)

let budget_workloads () =
  List.map
    (fun (name, m, arrival, placement) ->
      let spec = { Dcache_workload.Generator.m; n = budget_n; arrival; placement } in
      (name, Dcache_workload.Generator.generate_seeded ~seed:1 spec))
    ledger_workloads

(* sigma_i = t_i - t_{p(i)} from [Sequence.prevs]'s [prev], [infinity]
   without an earlier request on the server, as the library computes
   it where it reads it *)
let sigma seq prev i =
  let p = prev.(i) in
  if p >= 0 then Sequence.time seq i -. Sequence.time seq p else infinity

(* ---------------------------------------------------- random instances *)

let sequence_of_gen ~m ~n gaps servers =
  let clock = ref 0.0 in
  let requests =
    Array.init n (fun i ->
        clock := !clock +. gaps.(i);
        Request.make ~server:(servers.(i) mod m) ~time:!clock)
  in
  Sequence.create_exn ~m requests

(* A generated problem: instance plus cost model. *)
type problem = { model : Cost_model.t; seq : Sequence.t }

let problem_print { model; seq } =
  Format.asprintf "%a with %a" pp_seq seq pp_model model

let problem_gen ?(max_m = 6) ?(max_n = 18) ?(with_upload = false) () =
  let open QCheck.Gen in
  let* m = int_range 1 max_m in
  let* n = int_range 0 max_n in
  let* gaps = array_size (return n) (float_range 0.01 3.0) in
  let* servers = array_size (return n) (int_range 0 (max_m - 1)) in
  let* mu = float_range 0.1 4.0 in
  let* lambda = float_range 0.1 4.0 in
  let* upload =
    if with_upload then
      oneof [ return infinity; float_range 0.1 4.0 ]
    else return infinity
  in
  return
    {
      model = Cost_model.make ~upload ~mu ~lambda ();
      seq = sequence_of_gen ~m ~n gaps servers;
    }

let problem_arbitrary ?max_m ?max_n ?with_upload () =
  QCheck.make ~print:problem_print (problem_gen ?max_m ?max_n ?with_upload ())

(* Non-empty variant for tests that need at least one request. *)
let nonempty_problem_arbitrary ?(max_m = 6) ?(max_n = 18) ?with_upload () =
  let gen =
    QCheck.Gen.(
      problem_gen ~max_m ~max_n ?with_upload () >>= fun p ->
      if Sequence.n p.seq = 0 then
        let+ gap = float_range 0.01 3.0 and+ server = int_range 0 (max_m - 1) in
        {
          p with
          seq =
            Sequence.create_exn ~m:(Sequence.m p.seq)
              [| Request.make ~server:(server mod Sequence.m p.seq) ~time:gap |];
        }
      else QCheck.Gen.return p)
  in
  QCheck.make ~print:problem_print gen

(* Time gaps that are often a single ulp (a zero gap stands for the
   next float), or dyadic so that mu sigma ties lambda exactly *)
let ulp_gap_gen =
  QCheck.Gen.(
    frequency [ (2, return 0.0); (2, return 0.5); (1, return 0.25); (4, float_range 0.01 3.0) ])

let times_of_gaps gaps =
  let clock = ref 0.0 in
  Array.map
    (fun gap ->
      clock := if gap = 0.0 then Float.succ !clock else !clock +. gap;
      !clock)
    gaps

(* Streams that outlive the streaming solver's first block of 4 096
   rows: n from two blocks to three blocks and 500 rows, m in
   {1, 2, 8, 64}, Zipf placement at m = 64 and uniform below.  Server
   1 is silent from row 100 to row 9 000, so its next request reaches
   two blocks back for its q, its pivots and its nxt slot. *)
let long_problem_gen =
  let open QCheck.Gen in
  let block = 4096 in
  let* m = oneofl [ 1; 2; 8; 64 ]
  and* n = int_range (2 * block) ((3 * block) + 500)
  and* seed = int_bound 1_000_000
  and* mu = float_range 0.1 4.0
  and* lambda = float_range 0.1 4.0
  and* upload = oneof [ return infinity; float_range 0.1 4.0 ] in
  let open Dcache_workload in
  let placement = if m = 64 then Placement.Zipf { exponent = 1.0 } else Placement.Uniform_random in
  let seq =
    Generator.generate_seeded ~seed
      { Generator.m; n; arrival = Arrival.Poisson { rate = 1.0 }; placement }
  in
  let servers =
    Array.init n (fun k ->
        let s = Sequence.server seq (k + 1) in
        if s = 1 && k >= 100 && k < 9000 then 0 else s)
  in
  let times = Array.init n (fun k -> Sequence.time seq (k + 1)) in
  match Sequence.of_columns ~m ~servers ~times with
  | Ok seq -> return { model = Cost_model.make ~upload ~mu ~lambda (); seq }
  | Error msg -> failwith msg

let long_problem_arbitrary =
  QCheck.make
    ~print:(fun { model; seq } ->
      Format.asprintf "m = %d, n = %d, %a" (Sequence.m seq) (Sequence.n seq) pp_model model)
    long_problem_gen

let qcheck ?(count = 300) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

(* Deterministic mini-instances used across suites: the paper's worked
   examples, shared with the experiment tables via
   Dcache_experiments.Instances rather than duplicated here. *)
let fig6 = Dcache_experiments.Instances.fig6
let fig2 = Dcache_experiments.Instances.fig2
