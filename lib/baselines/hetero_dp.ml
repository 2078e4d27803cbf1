open Dcache_core

type costs = {
  mu : float array;
  lambda : float array array;  (* closed under composition; diagonal 0 *)
}

let close_matrix lambda =
  let m = Array.length lambda in
  let closed = Array.map Array.copy lambda in
  for i = 0 to m - 1 do
    closed.(i).(i) <- 0.0
  done;
  (* Floyd-Warshall: chained instantaneous transfers accrue no caching *)
  for k = 0 to m - 1 do
    for i = 0 to m - 1 do
      for j = 0 to m - 1 do
        let via = closed.(i).(k) +. closed.(k).(j) in
        if via < closed.(i).(j) then closed.(i).(j) <- via
      done
    done
  done;
  closed

let make_costs_exn ~mu ~lambda =
  let m = Array.length mu in
  if m = 0 then invalid_arg "Hetero_dp: empty cost matrix";
  if Array.length lambda <> m || Array.exists (fun row -> Array.length row <> m) lambda then
    invalid_arg "Hetero_dp: lambda must be m x m";
  if Array.exists (fun x -> not (Float.is_finite x && x > 0.)) mu then
    invalid_arg "Hetero_dp: mu rates must be positive and finite";
  Array.iteri
    (fun i row ->
      Array.iteri
        (fun j x ->
          if i <> j && not (Float.is_finite x && x > 0.) then
            invalid_arg "Hetero_dp: lambda prices must be positive and finite")
        row)
    lambda;
  { mu = Array.copy mu; lambda = close_matrix lambda }

let of_homogeneous model ~m =
  make_costs_exn
    ~mu:(Array.make m model.Cost_model.mu)
    ~lambda:(Array.make_matrix m m model.Cost_model.lambda)

let num_servers c = Array.length c.mu
let lambda_of c ~src ~dst = c.lambda.(src).(dst)

let engine_costs c =
  {
    Dcache_sim.Engine.mu_of = (fun s -> c.mu.(s));
    lambda_of = (fun ~src ~dst -> c.lambda.(src).(dst));
    upload_of = (fun _ -> infinity);
  }

let check c seq =
  let m = num_servers c in
  if m <> Sequence.m seq then invalid_arg "Hetero_dp: cost matrix and sequence disagree on m";
  if m > 9 then invalid_arg "Hetero_dp: m > 9 makes the 4^m transition space infeasible"

(* Cheapest transfer into [x] from any member of the bitmask [set]:
   min_from.(set).(x), built by peeling the lowest bit. *)
let cheapest_sources c =
  let m = num_servers c in
  let states = 1 lsl m in
  let table = Array.make_matrix states m infinity in
  for set = 1 to states - 1 do
    let low = set land -set in
    let low_ix =
      let rec ix k = if 1 lsl k = low then k else ix (k + 1) in
      ix 0
    in
    let rest = set lxor low in
    for x = 0 to m - 1 do
      table.(set).(x) <-
        Float.min c.lambda.(low_ix).(x) (if rest = 0 then infinity else table.(rest).(x))
    done
  done;
  table

(* The sweep.  dp.(s) after step i = cheapest way to have held exactly
   the holder set [s] on interval i and served r_i.  [record] sees
   every improving transition for witness reconstruction. *)
let sweep c seq ~record =
  check c seq;
  let n = Sequence.n seq in
  let m = num_servers c in
  let states = 1 lsl m in
  let min_from = cheapest_sources c in
  (* addsum.(s).(t) = total cheapest-source price of provisioning every
     member of [t] from [s]; makes each transition O(1) *)
  let addsum =
    Array.init states (fun s ->
        let row = Array.make states 0.0 in
        for t = 1 to states - 1 do
          let low = t land -t in
          let low_ix =
            let rec ix k = if 1 lsl k = low then k else ix (k + 1) in
            ix 0
          in
          row.(t) <- row.(t lxor low) +. min_from.(s).(low_ix)
        done;
        row)
  in
  let interval_rate = Array.make states 0.0 in
  for set = 1 to states - 1 do
    let rec sum set acc k =
      if set = 0 then acc
      else if set land 1 = 1 then sum (set lsr 1) (acc +. c.mu.(k)) (k + 1)
      else sum (set lsr 1) acc (k + 1)
    in
    interval_rate.(set) <- sum set 0.0 0
  done;
  let dp = Array.make states infinity in
  let next = Array.make states infinity in
  (* virtual step 0: holder set {0}, no interval yet *)
  dp.(1) <- 0.0;
  let prev_dest = ref 0 (* d_0 = server 0 *) in
  for i = 1 to n do
    Array.fill next 0 states infinity;
    let dt = Sequence.time seq i -. Sequence.time seq (i - 1) in
    let dest = Sequence.server seq i in
    let dest_bit = 1 lsl dest in
    let carry_bit = 1 lsl !prev_dest in
    for s = 1 to states - 1 do
      if dp.(s) < infinity then begin
        (* members of s plus the previous destination are free to keep *)
        let free = s lor carry_bit in
        let from_cost = dp.(s) in
        let add_row = addsum.(s) in
        for s' = 1 to states - 1 do
          let additions = s' land lnot free in
          let cost =
            from_cost +. add_row.(additions)
            +. (interval_rate.(s') *. dt)
            +. (if s' land dest_bit <> 0 then 0.0 else min_from.(s').(dest))
          in
          if cost < next.(s') then begin
            next.(s') <- cost;
            record ~step:i ~state':s' ~from_state:s ~cost
          end
        done
      end
    done;
    Array.blit next 0 dp 0 states;
    prev_dest := dest
  done;
  dp

let solve c seq =
  if Sequence.n seq = 0 then 0.0
  else
    let dp = sweep c seq ~record:(fun ~step:_ ~state':_ ~from_state:_ ~cost:_ -> ()) in
    Array.fold_left Float.min infinity dp

let solve_schedule c seq =
  let n = Sequence.n seq in
  if n = 0 then (0.0, Schedule.empty)
  else begin
    check c seq;
    let states = 1 lsl num_servers c in
    let parent = Array.init (n + 1) (fun _ -> Array.make states (-1)) in
    let record ~step ~state' ~from_state ~cost:_ = parent.(step).(state') <- from_state in
    let dp = sweep c seq ~record in
    let best_state = ref 1 and best = ref infinity in
    for s = 1 to states - 1 do
      if dp.(s) < !best then begin
        best := dp.(s);
        best_state := s
      end
    done;
    (* walk back to recover the holder set of every interval *)
    let sets = Array.make (n + 1) 0 in
    sets.(n) <- !best_state;
    for i = n downto 1 do
      sets.(i - 1) <- parent.(i).(sets.(i))
    done;
    (* sets.(0) = 1 = {server 0}; emit caches and transfers *)
    let caches = ref [] and transfers = ref [] in
    let min_src set x =
      let rec scan k best best_src =
        if k >= num_servers c then best_src
        else if set land (1 lsl k) <> 0 && c.lambda.(k).(x) < best then
          scan (k + 1) c.lambda.(k).(x) k
        else scan (k + 1) best best_src
      in
      scan 0 infinity (-1)
    in
    let prev_dest = ref 0 in
    for i = 1 to n do
      let s_prev = sets.(i - 1) and s = sets.(i) in
      let t0 = Sequence.time seq (i - 1) and t1 = Sequence.time seq i in
      let dest = Sequence.server seq i in
      let free = s_prev lor (1 lsl !prev_dest) in
      for x = 0 to num_servers c - 1 do
        if s land (1 lsl x) <> 0 then begin
          caches := { Schedule.server = x; from_time = t0; to_time = t1 } :: !caches;
          if free land (1 lsl x) = 0 then
            transfers :=
              { Schedule.src = Schedule.From_server (min_src s_prev x); dst = x; time = t0 }
              :: !transfers
        end
      done;
      if s land (1 lsl dest) = 0 then
        transfers :=
          { Schedule.src = Schedule.From_server (min_src s dest); dst = dest; time = t1 }
          :: !transfers;
      prev_dest := dest
    done;
    (!best, Schedule.make ~caches:!caches ~transfers:!transfers)
  end

let price c schedule =
  let caching =
    List.fold_left
      (fun acc piece ->
        acc +. (c.mu.(piece.Schedule.server) *. (piece.Schedule.to_time -. piece.Schedule.from_time)))
      0.0 (Schedule.caches schedule)
  in
  List.fold_left
    (fun acc tr ->
      match tr.Schedule.src with
      | Schedule.From_server src -> acc +. c.lambda.(src).(tr.Schedule.dst)
      | Schedule.From_external -> acc +. infinity)
    caching (Schedule.transfers schedule)
