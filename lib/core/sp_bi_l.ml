let solve inst ~latency =
  Option.map Split.to_solution
    (Loop.minimise_period_under_latency (Split.stack ~arity:Split.Two ~rule:Split.Bi inst) ~latency)
