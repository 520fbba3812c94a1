open Pipeline_model
open Pipeline_core
module Bipartite = Pipeline_util.Bipartite
module Hungarian = Pipeline_util.Hungarian

let costs (inst : Instance.t) =
  if not (Platform.is_comm_homogeneous inst.platform) then
    invalid_arg "One_to_one: requires a comm-homogeneous platform";
  let n = Application.n inst.app and p = Platform.p inst.platform in
  if n > p then invalid_arg "One_to_one: requires n <= p";
  let b = Platform.io_bandwidth inst.platform 0 in
  let app = inst.app in
  let cycle k u =
    ((Application.delta app (k - 1) +. Application.delta app k) /. b)
    +. (Application.work app k /. Platform.speed inst.platform u)
  in
  let contrib k u =
    (Application.delta app (k - 1) /. b)
    +. (Application.work app k /. Platform.speed inst.platform u)
  in
  (n, p, b, cycle, contrib)

let solution_of_assignment (inst : Instance.t) assignment =
  Solution.of_mapping inst (Mapping.one_to_one ~procs:assignment)

(* Perfect matching of stages to processors using only pairs with
   cycle-time <= threshold. *)
let feasible_assignment (inst : Instance.t) ~threshold =
  let n, p, _, cycle, _ = costs inst in
  let adjacency =
    Array.init n (fun k0 ->
        List.filter
          (fun u -> Pipeline_util.Tol.meets (cycle (k0 + 1) u) threshold)
          (List.init p Fun.id))
  in
  let result = Bipartite.max_matching ~left:n ~right:p ~adjacency in
  if Bipartite.is_perfect_on_left result then Some result.Bipartite.left_match
  else None

let min_period (inst : Instance.t) =
  let n, p, _, cycle, _ = costs inst in
  let candidates = ref [] in
  for k = 1 to n do
    for u = 0 to p - 1 do
      candidates := cycle k u :: !candidates
    done
  done;
  (* One-to-one candidates pair each stage's input and output transfer
     ((δ_{d-1} + δ_d)/b), so the set differs from Candidates.periods and
     stays local. The largest candidate admits a perfect matching (every
     edge open, and n <= p guarantees one). *)
  match
    Threshold.search
      ~candidates:(Candidates.of_values !candidates)
      ~probe:(fun threshold -> feasible_assignment inst ~threshold)
      ()
  with
  | Some found -> solution_of_assignment inst found.Threshold.payload
  | None -> assert false

let hungarian_under_period (inst : Instance.t) ~period =
  let n, p, _, cycle, contrib = costs inst in
  let cost k0 u =
    if Pipeline_util.Tol.meets (cycle (k0 + 1) u) period then contrib (k0 + 1) u
    else infinity
  in
  match Hungarian.solve ~rows:n ~cols:p ~cost with
  | None -> None
  | Some (_, assignment) -> Some (solution_of_assignment inst assignment)

let min_latency (inst : Instance.t) =
  match hungarian_under_period inst ~period:infinity with
  | Some sol -> sol
  | None -> assert false (* finite costs: an assignment always exists *)

let min_latency_under_period (inst : Instance.t) ~period =
  hungarian_under_period inst ~period

let pareto (inst : Instance.t) =
  let n, p, _, cycle, _ = costs inst in
  let candidates = ref [] in
  for k = 1 to n do
    for u = 0 to p - 1 do
      candidates := cycle k u :: !candidates
    done
  done;
  Solution.front
    (List.filter_map
       (fun period -> min_latency_under_period inst ~period)
       (List.sort_uniq compare !candidates))
