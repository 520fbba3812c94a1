open Pipeline_model

type solution = {
  mapping : Deal_mapping.t;
  period : float;
  latency : float;
}

let threshold_met = Pipeline_util.Tol.meets

let evaluate inst mapping =
  let s = Deal_metrics.summary inst mapping in
  { mapping; period = s.Deal_metrics.period; latency = s.Deal_metrics.latency }

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

let improving (sol : solution) = List.filter (fun c -> c.period < sol.period)

let minimise_latency_under_period inst ~period =
  let rec refine sol =
    if threshold_met sol.period period then Some sol
    else
      let j = bottleneck inst sol in
      match select (improving sol (candidates inst sol ~j)) with
      | Some best -> refine best
      | None ->
        (* Stuck: a replicated bottleneck cannot be split, and another
           replica may not pay for itself. Splits alone may still get
           there, so fall back on H1. *)
        Option.map
          (fun (h1 : Pipeline_core.Solution.t) ->
            evaluate inst (Deal_mapping.of_mapping h1.mapping))
          (Pipeline_core.Sp_mono_p.solve inst ~period)
  in
  refine (initial inst)

let minimise_period_under_latency inst ~latency =
  let rec refine sol =
    let j = bottleneck inst sol in
    let acceptable =
      List.filter
        (fun c -> threshold_met c.latency latency)
        (improving sol (candidates inst sol ~j))
    in
    match select acceptable with None -> sol | Some best -> refine best
  in
  let sol = initial inst in
  if threshold_met sol.latency latency then Some (refine sol) else None
