type 'a stack = {
  start : 'a;
  period : 'a -> float;
  latency : 'a -> float;
  step : 'a -> cap:float -> 'a option;
}

let threshold_met = Pipeline_util.Tol.meets

(* The one walk: from [start], apply the stack's step until [stop] holds
   or no move is left. *)
let walk s ~cap ~stop =
  let rec refine x =
    if stop x then x
    else match s.step x ~cap with None -> x | Some x' -> refine x'
  in
  refine s.start

let minimise_latency_under_period ?(latency_cap = infinity) s ~period =
  let met x = threshold_met (s.period x) period in
  let x = walk s ~cap:latency_cap ~stop:met in
  if met x then Some x else None

let minimise_period_under_latency s ~latency =
  if threshold_met (s.latency s.start) latency then
    Some (walk s ~cap:latency ~stop:(Fun.const false))
  else None

let reach s = s.period (walk s ~cap:infinity ~stop:(Fun.const false))
