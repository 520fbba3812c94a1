open Pipeline_model

let max_probes = 25

let c_bisect =
  Obs.Counter.make ~doc:"latency-cap bisection attempts in Sp_bi_p.solve"
    "core.sp_bi_p.bisect_iters"

let attempt inst ~period ~cap =
  Option.map Split.to_solution
    (Loop.minimise_latency_under_period ~latency_cap:cap
       (Split.stack ~arity:Split.Two ~rule:Split.Bi inst)
       ~period)

let solve inst ~period =
  match attempt inst ~period ~cap:infinity with
  | None -> None
  | Some unconstrained ->
    let optimal_latency = Instance.optimal_latency inst in
    let best = ref unconstrained in
    (* Latency is a sum of interval contributions, so there is no small
       candidate set to search exactly (DESIGN.md §9): bisect the cap
       between the instance's optimal latency and the unconstrained
       solution's, stopping as soon as the bracket converges. Same
       midpoints, convergence test and probe budget as the historical
       25-iteration loop — bit-identical results, fewer probes. *)
    let feasible cap =
      match attempt inst ~period ~cap with
      | Some sol ->
        if sol.Solution.latency < !best.Solution.latency then best := sol;
        true
      | None -> false
    in
    let b =
      Threshold.bisect ~max_probes ~lo:optimal_latency
        ~hi:unconstrained.Solution.latency ~feasible ()
    in
    Obs.Counter.add c_bisect b.Threshold.probes;
    Some !best
