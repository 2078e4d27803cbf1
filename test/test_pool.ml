(* Tests for the deterministic domain pool: positional results equal
   Array.init/Array.map at any width, sweep output is byte-identical
   across widths, exceptions propagate and leave the pool usable,
   nested regions and shut-down pools are rejected, a 2-domain
   micro-sweep agrees with the sequential ratio search, and `dcache
   experiments` prints the same bytes at DCACHE_DOMAINS=1 and 2. *)

module Pool = Dcache_prelude.Pool
module Rng = Dcache_prelude.Rng
open Helpers

(* Module-level pools shared by the qcheck properties below.  Alcotest
   leaves via [exit], which tears the helper domains down with the
   process, so these are never explicitly shut down. *)
let pool1 = Pool.create ~domains:1 ()
let pool4 = Pool.create ~domains:4 ()

let with_pool ~domains f =
  let p = Pool.create ~domains () in
  Fun.protect ~finally:(fun () -> Pool.shutdown p) (fun () -> f p)

let parallel_init_matches =
  qcheck ~count:100 "pool: parallel_init is Array.init"
    QCheck.(pair (int_bound 200) (int_bound 1000))
    (fun (n, seed) ->
      let root = Rng.create (seed + 1) in
      let f i = Rng.bits64 (Rng.derive root i) in
      Pool.parallel_init pool4 n f = Array.init n f)

let parallel_map_matches =
  qcheck ~count:100 "pool: parallel_map is Array.map"
    QCheck.(array_of_size Gen.(int_bound 64) small_int)
    (fun a ->
      let f x = (x * x) - (3 * x) + 7 in
      Pool.parallel_init pool4 (Array.length a) (fun i -> f a.(i)) = Array.map f a)

(* A miniature experiment sweep: cell [i] derives its stream from the
   root by index, builds an instance, solves it offline, and renders a
   CSV row.  Byte-identical output across widths is exactly the
   determinism contract the experiment tables rely on. *)
let sweep_csv pool root cells =
  let model = Dcache_core.Cost_model.make ~mu:1.0 ~lambda:2.0 () in
  let rows =
    Pool.parallel_init pool cells (fun i ->
        let rng = Rng.derive root i in
        let m = 2 + (i mod 4) in
        let n = 10 + (i mod 23) in
        let clock = ref 0.0 in
        let requests =
          Array.init n (fun _ ->
              clock := !clock +. Rng.float_in rng 0.05 1.0;
              Dcache_core.Request.make ~server:(Rng.int rng m) ~time:!clock)
        in
        let seq = Dcache_core.Sequence.create_exn ~m requests in
        let cost = Dcache_core.Offline_dp.cost (Dcache_core.Offline_dp.solve model seq) in
        Printf.sprintf "%d,%d,%d,%.9f" i m n cost)
  in
  String.concat "\n" (Array.to_list rows)

let sweep_width_independent =
  qcheck ~count:25 "pool: sweep CSV is byte-identical at widths 1 and 4"
    QCheck.(int_bound 10_000)
    (fun seed ->
      let root = Rng.create (seed + 17) in
      String.equal (sweep_csv pool1 root 17) (sweep_csv pool4 root 17))

let exception_propagation () =
  with_pool ~domains:3 (fun p ->
      Alcotest.check_raises "task failure reaches the submitter" (Failure "boom") (fun () ->
          ignore (Pool.parallel_init p 64 (fun i -> if i = 37 then failwith "boom" else i)));
      Alcotest.(check (array int)) "pool is reusable after a failed job" (Array.init 64 Fun.id)
        (Pool.parallel_init p 64 Fun.id))

let nested_rejection () =
  with_pool ~domains:2 (fun p ->
      Alcotest.(check bool) "nested region rejected" true
        (try
           ignore (Pool.parallel_init p 4 (fun _ -> Array.length (Pool.parallel_init p 2 Fun.id)));
           false
         with Invalid_argument _ -> true))

let shutdown_semantics () =
  let p = Pool.create ~domains:2 () in
  Alcotest.(check (array int)) "live pool works" [| 0; 1; 2 |] (Pool.parallel_init p 3 Fun.id);
  Pool.shutdown p;
  Pool.shutdown p;
  (* idempotent *)
  Alcotest.check_raises "submit after shutdown" (Invalid_argument "Pool: pool already shut down")
    (fun () -> ignore (Pool.parallel_init p 4 Fun.id))

(* The runtest smoke test of the parallel experiment path: a small
   ratio-search sweep on a 2-domain pool must reproduce the sequential
   result exactly. *)
let micro_sweep_smoke () =
  let model = Dcache_core.Cost_model.make ~mu:1.0 ~lambda:2.0 () in
  let search rng pool =
    Dcache_workload.Ratio_search.search ~restarts:4 ~steps:40 ?pool ~rng ~m:3 ~n:12 model
  in
  let sequential = search (Rng.create 42) None in
  let pooled = with_pool ~domains:2 (fun p -> search (Rng.create 42) (Some p)) in
  check_float "same ratio" sequential.Dcache_workload.Ratio_search.ratio
    pooled.Dcache_workload.Ratio_search.ratio;
  check_float "same online cost" sequential.Dcache_workload.Ratio_search.sc_cost
    pooled.Dcache_workload.Ratio_search.sc_cost;
  check_float "same offline cost" sequential.Dcache_workload.Ratio_search.opt_cost
    pooled.Dcache_workload.Ratio_search.opt_cost

(* The CLI end of the determinism contract: `dcache experiments`
   prints the same bytes at DCACHE_DOMAINS=1 and 2 over the parallel
   E7 and E14 sweeps, and an unknown report name is a usage error
   (exit 124). *)
let experiments_cli_width_independent () =
  let exe = Filename.concat (Filename.concat ".." "bin") "dcache.exe" in
  let run ~width args =
    let out = Filename.temp_file "dcache" ".out" in
    Fun.protect
      ~finally:(fun () -> Sys.remove out)
      (fun () ->
        let status =
          Sys.command
            ("DCACHE_DOMAINS=" ^ width ^ " "
            ^ Filename.quote_command exe ~stdout:out ~stderr:Filename.null ("experiments" :: args))
        in
        (status, In_channel.with_open_text out In_channel.input_all))
  in
  let at width = run ~width [ "--quick"; "ratio"; "ratio_search"; "fig6" ] in
  let s1, out1 = at "1" and s2, out2 = at "2" in
  Alcotest.(check (pair int int)) "both widths exit 0" (0, 0) (s1, s2);
  Alcotest.(check bool) "reports printed" true (String.length out1 > 0);
  Alcotest.(check string) "DCACHE_DOMAINS=1 and 2 print the same bytes" out1 out2;
  Alcotest.(check int) "unknown report exits 124" 124 (fst (run ~width:"1" [ "nosuch" ]))

let suite =
  [
    parallel_init_matches;
    parallel_map_matches;
    sweep_width_independent;
    case "pool: exception propagation and reuse" exception_propagation;
    case "pool: nested region rejected" nested_rejection;
    case "pool: shutdown semantics" shutdown_semantics;
    case "pool: 2-domain micro-sweep matches sequential" micro_sweep_smoke;
    case "pool: dcache experiments prints the same bytes at any width"
      experiments_cli_width_independent;
  ]
