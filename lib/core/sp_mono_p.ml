let stack = Split.stack ~arity:Split.Two ~rule:Split.Mono

let solve inst ~period =
  Option.map Split.to_solution (Loop.minimise_latency_under_period (stack inst) ~period)

let reach inst = Loop.reach (stack inst)
