open Pipeline_model
open Pipeline_core

(* Equations (1)-(2) through the engine: Cost.cycle and Cost.contrib add
   (δ_{d-1}/b + W/s) + δ_e/b, the association the DP has always used. *)
let costs (inst : Instance.t) =
  if not (Platform.is_comm_homogeneous inst.platform) then
    invalid_arg "Bicriteria: requires a comm-homogeneous platform";
  let cost = Cost.get inst.app inst.platform in
  (Cost.cycle cost, Cost.contrib cost)

let solution_of_assignment (inst : Instance.t) assignment =
  let mapping = Mapping.make ~n:(Application.n inst.app) assignment in
  Solution.of_mapping inst mapping

let min_period (inst : Instance.t) =
  let cycle, _ = costs inst in
  let n = Application.n inst.app and p = Platform.p inst.platform in
  let _, assignment = Chains.Subset_dp.minimise_bottleneck ~n ~p ~cost:cycle in
  solution_of_assignment inst assignment

let min_latency_under_period (inst : Instance.t) ~period =
  let cycle, contrib = costs inst in
  let n = Application.n inst.app and p = Platform.p inst.platform in
  match
    Chains.Subset_dp.minimise_sum_under_cap ~n ~p ~cap_cost:cycle ~sum_cost:contrib
      ~cap:period
  with
  | None -> None
  | Some (_, assignment) -> Some (solution_of_assignment inst assignment)

(* All values an interval cycle-time can take: the candidate periods,
   served from the engine's cache (same floats as [costs]' cycle). *)
let candidate_periods (inst : Instance.t) =
  Candidates.periods (Cost.get inst.app inst.platform)

let candidate_set (inst : Instance.t) =
  Candidates.Set.of_engine (Cost.get inst.app inst.platform)

let c_bisect =
  Obs.Counter.make
    ~doc:"binary-search probes in Bicriteria.min_period_under_latency"
    "optimal.bicriteria.bisect_iters"

let min_period_under_latency (inst : Instance.t) ~latency =
  let feasible period =
    match min_latency_under_period inst ~period with
    | Some sol when Solution.respects_latency sol latency -> Some sol
    | _ -> None
  in
  (* Smallest candidate period whose latency-optimal mapping fits the
     latency budget (feasibility is monotone in the period threshold). *)
  match Threshold.search_set ~set:(candidate_set inst) ~probe:feasible () with
  | None -> None
  | Some found ->
    Obs.Counter.add c_bisect found.Threshold.probes;
    Some found.Threshold.payload

let pareto (inst : Instance.t) =
  let candidates = Array.to_list (candidate_periods inst) in
  Solution.front
    (List.filter_map (fun period -> min_latency_under_period inst ~period) candidates)
