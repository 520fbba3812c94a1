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

(* The deal stack's step: the best move of the bottleneck that strictly
   lowers the period and meets the latency cap. *)
let step inst sol ~cap =
  List.filter
    (fun c -> c.period < sol.period && threshold_met c.latency cap)
    (candidates inst sol ~j:(bottleneck inst sol))
  |> select

let stack inst =
  {
    Pipeline_core.Loop.start = initial inst;
    period = (fun s -> s.period);
    latency = (fun s -> s.latency);
    step = step inst;
  }

let minimise_latency_under_period inst ~period =
  match Pipeline_core.Loop.minimise_latency_under_period (stack inst) ~period with
  | Some _ as found -> found
  | None ->
    (* Stuck: a replicated bottleneck cannot be split, and another
       replica may not pay for itself. Splits alone may still get there,
       so fall back on H1. *)
    Option.map
      (fun (h1 : Pipeline_core.Solution.t) ->
        evaluate inst (Deal_mapping.of_mapping h1.mapping))
      (Pipeline_core.Sp_mono_p.solve inst ~period)

let minimise_period_under_latency inst ~latency =
  Pipeline_core.Loop.minimise_period_under_latency (stack inst) ~latency

let reach inst =
  Float.min
    (Pipeline_core.Loop.reach (stack inst))
    (Pipeline_core.Sp_mono_p.reach inst)
