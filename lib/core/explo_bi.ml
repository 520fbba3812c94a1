let solve inst ~period =
  Option.map Split.to_solution
    (Loop.minimise_latency_under_period (Split.stack ~arity:Split.Three ~rule:Split.Bi inst) ~period)
