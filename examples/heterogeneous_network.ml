(* Beyond the paper: heterogeneous networks and stage replication.

   Run with:  dune exec examples/heterogeneous_network.exe

   The paper's conclusion (§7) names two extensions: fully heterogeneous
   platforms, and deal/farm skeletons that replicate a bottleneck stage.
   This example exercises both, loading the instances from the textual
   files under examples/instances/. *)

open Pipeline_model

let load path =
  match Instance_io.load path with
  | Ok inst -> inst
  | Error e ->
    Format.eprintf "%s: %a@." path Instance_io.pp_error e;
    exit 1

let () =
  (* Part 1 — a heterogeneous network: two machines on a fat link, a
     third behind a thin one. The paper's heuristics cannot run here
     (they assume identical links); the het extension re-scores every
     split with the true per-link cost model. *)
  let inst = load "examples/instances/hetnet.pw" in
  Format.printf "Part 1 — fully heterogeneous platform@.%a@.@." Instance.pp inst;
  let lat_opt = Pipeline_optimal.Latency.solve inst in
  Format.printf "Best single machine: %a@." Pipeline_core.Solution.pp lat_opt;
  List.iter
    (fun budget_factor ->
      let budget = lat_opt.Pipeline_core.Solution.latency *. budget_factor in
      match
        Pipeline_het.Het_heuristics.minimise_period_under_latency inst
          ~latency:budget
      with
      | None -> Format.printf "  budget %.1f: infeasible@." budget
      | Some sol ->
        Format.printf "  latency budget %5.1f -> %a@." budget
          Pipeline_core.Solution.pp sol)
    [ 1.0; 1.3; 2.0 ];
  (* Ground truth for this small instance. *)
  let best = Pipeline_optimal.Exhaustive.min_period inst in
  Format.printf "  exhaustive optimum:     %a@.@." Pipeline_core.Solution.pp best;

  (* Part 2 — a hot stage: the encode stage of the transcoding chain
     dominates, so pure interval splitting hits a floor; replicating the
     hot interval (deal skeleton) goes below it. *)
  let inst = load "examples/instances/transcode.pw" in
  Format.printf "Part 2 — deal skeleton on the transcoding chain@.%a@.@."
    Instance.pp inst;
  (match Pipeline_core.Sp_mono_l.solve inst ~latency:infinity with
  | Some sol ->
    Format.printf "splitting only:   %a@." Pipeline_core.Solution.pp sol
  | None -> ());
  (match
     Pipeline_deal.Deal_heuristic.minimise_period_under_latency inst
       ~latency:infinity
   with
  | Some sol ->
    Format.printf "with replication: %s period=%g latency=%g@."
      (Deal_mapping.to_string sol.Pipeline_deal.Deal_heuristic.mapping)
      sol.Pipeline_deal.Deal_heuristic.period
      sol.Pipeline_deal.Deal_heuristic.latency;
    (* Execute the dealt mapping operationally. *)
    let result =
      Pipeline_deal.Deal_sim.run inst sol.Pipeline_deal.Deal_heuristic.mapping
        ~datasets:400
    in
    Format.printf
      "simulated: steady period %.2f (analytic %.2f), worst frame delay %.1f@."
      result.Pipeline_deal.Deal_sim.steady_period
      sol.Pipeline_deal.Deal_heuristic.period
      result.Pipeline_deal.Deal_sim.max_latency
  | None -> ());
  (* The weighted-deal bound shows what a smarter-than-round-robin dealer
     could still gain. *)
  match
    Pipeline_deal.Deal_heuristic.minimise_period_under_latency inst
      ~latency:infinity
  with
  | None -> ()
  | Some sol ->
    Format.printf "weighted-deal lower bound on the same mapping: %.2f@."
      (Cost.deal_period_weighted (Cost.get inst.app inst.platform)
         sol.Pipeline_deal.Deal_heuristic.mapping)
