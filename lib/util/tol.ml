let accept_rel = 1e-9
let bisect_rel = 1e-12

let meets value threshold =
  value <= threshold +. (accept_rel *. Float.max 1. (Float.abs threshold))

let converged ?(rel = bisect_rel) ~lo ~hi () =
  lo = hi || hi -. lo <= rel *. Float.max 1. hi
