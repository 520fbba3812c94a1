let solve rule inst ~period =
  Option.map Split.to_solution
    (Loop.minimise_latency_under_period
       (Split.stack ~arity:Split.Three_or_two ~rule inst)
       ~period)

let solve_mono = solve Split.Mono
let solve_bi = solve Split.Bi
