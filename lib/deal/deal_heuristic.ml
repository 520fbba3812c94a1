open Pipeline_model

type solution = {
  mapping : Deal_mapping.t;
  period : float;
  latency : float;
}

let threshold_met = Pipeline_util.Tol.meets

let evaluate inst mapping =
  let s = Cost.deal_summary (Cost.get inst.Instance.app inst.Instance.platform) mapping in
  { mapping; period = s.period; latency = s.latency }

let initial (inst : Instance.t) =
  let n = Application.n inst.app in
  let mapping =
    Deal_mapping.of_mapping
      (Mapping.single ~n ~proc:(Platform.fastest inst.platform))
  in
  evaluate inst mapping

(* The interval whose contribution equals the period. *)
let bottleneck (inst : Instance.t) (sol : solution) =
  Cost.deal_bottleneck (Cost.get inst.app inst.platform) sol.mapping

let next_unused (inst : Instance.t) mapping =
  let order = Platform.by_decreasing_speed inst.platform in
  Array.to_list order |> List.find_opt (fun u -> not (Deal_mapping.uses mapping u))

let candidates (inst : Instance.t) (sol : solution) ~j =
  match next_unused inst sol.mapping with
  | None -> []
  | Some u ->
    let iv = Deal_mapping.interval sol.mapping j in
    let splits =
      if Deal_mapping.replication sol.mapping j > 1 then []
      else begin
        let kept = List.hd (Deal_mapping.replicas sol.mapping j) in
        List.concat_map
          (fun c ->
            let left, right = Interval.split_at iv c in
            [
              Deal_mapping.replace sol.mapping ~j [ (left, [ kept ]); (right, [ u ]) ];
              Deal_mapping.replace sol.mapping ~j [ (left, [ u ]); (right, [ kept ]) ];
            ])
          (Interval.split_points iv)
      end
    in
    let replications = [ Deal_mapping.replicate sol.mapping ~j ~proc:u ] in
    List.map (evaluate inst) (splits @ replications)

let better (a : solution) (b : solution) =
  match compare a.period b.period with 0 -> a.latency < b.latency | c -> c < 0

let select = function
  | [] -> None
  | first :: rest ->
    Some (List.fold_left (fun acc c -> if better c acc then c else acc) first rest)

(* The one split/replicate loop: from [initial], apply the best
   period-improving move until [stop] holds or none is left. *)
let walk ?(latency_cap = infinity) ~stop inst =
  let rec refine sol =
    if stop sol then sol
    else
      let j = bottleneck inst sol in
      let acceptable =
        List.filter
          (fun c -> c.period < sol.period && threshold_met c.latency latency_cap)
          (candidates inst sol ~j)
      in
      match select acceptable with None -> sol | Some best -> refine best
  in
  refine (initial inst)

let minimise_latency_under_period inst ~period =
  let met sol = threshold_met sol.period period in
  let sol = walk ~stop:met inst in
  if met sol then Some sol
  else
    (* Stuck: a replicated bottleneck cannot be split, and another
       replica may not pay for itself. Splits alone may still get there,
       so fall back on H1. *)
    Option.map
      (fun (h1 : Pipeline_core.Solution.t) ->
        evaluate inst (Deal_mapping.of_mapping h1.mapping))
      (Pipeline_core.Sp_mono_p.solve inst ~period)

let minimise_period_under_latency inst ~latency =
  if threshold_met (initial inst).latency latency then
    Some (walk ~latency_cap:latency ~stop:(Fun.const false) inst)
  else None

let reach inst =
  Float.min
    (walk ~stop:(Fun.const false) inst).period
    (Pipeline_core.Sp_mono_p.reach inst)
