let solve inst ~period =
  Loop.minimise_latency_under_period ~gen:Loop.gen_two ~select:Loop.select_mono
    inst ~period

let reach = Loop.reach ~gen:Loop.gen_two ~select:Loop.select_mono
