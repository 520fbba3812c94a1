open Pipeline_model
open Pipeline_core

let threshold_met = Pipeline_util.Tol.meets

(* Best single-processor mapping by latency (on het platforms speed alone
   does not decide: I/O bandwidths matter). *)
let initial (inst : Instance.t) =
  let n = Application.n inst.app in
  let best = ref None in
  for u = 0 to Platform.p inst.platform - 1 do
    let sol = Solution.of_mapping inst (Mapping.single ~n ~proc:u) in
    match !best with
    | Some b when b.Solution.latency <= sol.Solution.latency -> ()
    | _ -> best := Some sol
  done;
  Option.get !best

let unused_processors (inst : Instance.t) mapping =
  let p = Platform.p inst.platform in
  List.filter (fun u -> not (Mapping.uses mapping u)) (List.init p Fun.id)

(* Comm-aware target ordering (ROADMAP item 3, the H1–H6-style
   extension; DESIGN.md §13): free processors are ranked by the time
   interval [j] would take if handed over whole — its input over the
   link from the upstream processor, its computation at the target's
   speed, its output over the link to the downstream processor (I/O
   bandwidth at the pipeline ends). Every candidate is still scored
   with the full cost model; the rank decides enumeration order, hence
   which candidate wins among exact (period, latency) ties. On a
   comm-homogeneous platform the rank reduces to effective speed, and
   with zero-size messages it is bandwidth-independent (the zero-comm
   collapse law of Transform relies on this). Ties keep processor-index
   order. *)
let ordered_targets (inst : Instance.t) mapping ~j free =
  match free with
  | [] | [ _ ] -> free
  | _ ->
    let app = inst.Instance.app and platform = inst.Instance.platform in
    let iv = Mapping.interval mapping j in
    let d = Interval.first iv and e = Interval.last iv in
    let m = Mapping.m mapping in
    let proxy u =
      let b_in =
        if j = 0 then Platform.io_bandwidth platform u
        else Platform.bandwidth platform (Mapping.proc mapping (j - 1)) u
      in
      let b_out =
        if j = m - 1 then Platform.io_bandwidth platform u
        else Platform.bandwidth platform u (Mapping.proc mapping (j + 1))
      in
      Application.delta app (d - 1) /. b_in
      +. (Application.work_sum app d e /. Platform.speed platform u)
      +. (Application.delta app e /. b_out)
    in
    List.map (fun u -> (proxy u, u)) free
    |> List.stable_sort (fun (a, _) (b, _) -> compare (a : float) b)
    |> List.map snd

(* All 2-way splits of interval [j]: every cut, both orientations, every
   unused processor (comm-aware order); scored with the full cost
   model. The returned list preserves enumeration order, so [pick]'s
   first-wins tie-break favours the comm-aware-best target. *)
let candidates (inst : Instance.t) (sol : Solution.t) ~j =
  let mapping = sol.Solution.mapping in
  let iv = Mapping.interval mapping j in
  let kept = Mapping.proc mapping j in
  let free = unused_processors inst mapping in
  if Interval.length iv < 2 || free = [] then []
  else begin
    let targets = ordered_targets inst mapping ~j free in
    let acc = ref [] in
    List.iter
      (fun c ->
        let left, right = Interval.split_at iv c in
        List.iter
          (fun u ->
            List.iter
              (fun parts ->
                let mapping' = Mapping.replace mapping ~j parts in
                acc := Solution.of_mapping inst mapping' :: !acc)
              [ [ (left, kept); (right, u) ]; [ (left, u); (right, kept) ] ])
          targets)
      (Interval.split_points iv);
    List.rev !acc
  end

type select = Min_period | Min_ratio

let better_period (a : Solution.t) (b : Solution.t) =
  match compare a.Solution.period b.Solution.period with
  | 0 -> a.Solution.latency < b.Solution.latency
  | c -> c < 0

(* Ratio rule on global objective values: latency paid per unit of
   period gained, relative to the current solution. *)
let ratio (current : Solution.t) (c : Solution.t) =
  (c.Solution.latency -. current.Solution.latency)
  /. (current.Solution.period -. c.Solution.period)

let better_ratio current (a : Solution.t) (b : Solution.t) =
  match compare (ratio current a) (ratio current b) with
  | 0 -> better_period a b
  | c -> c < 0

let pick select current = function
  | [] -> None
  | first :: rest ->
    let better =
      match select with
      | Min_period -> better_period
      | Min_ratio -> better_ratio current
    in
    Some (List.fold_left (fun acc c -> if better c acc then c else acc) first rest)

let bottleneck (inst : Instance.t) (sol : Solution.t) =
  Metrics.bottleneck inst.app inst.platform sol.Solution.mapping

(* The one splitting loop: from [initial], apply the selected
   period-improving candidate until [stop] holds or none is left. *)
let walk ?(latency_cap = infinity) ~select ~stop (inst : Instance.t) =
  let rec refine (sol : Solution.t) =
    if stop sol then sol
    else begin
      let j = bottleneck inst sol in
      let improving =
        List.filter
          (fun (c : Solution.t) ->
            c.Solution.period < sol.Solution.period
            && threshold_met c.Solution.latency latency_cap)
          (candidates inst sol ~j)
      in
      match pick select sol improving with
      | None -> sol
      | Some best -> refine best
    end
  in
  refine (initial inst)

let minimise_latency_under_period ?(select = Min_period) inst ~period =
  let met (sol : Solution.t) = threshold_met sol.Solution.period period in
  let sol = walk ~select ~stop:met inst in
  if met sol then Some sol else None

let minimise_period_under_latency ?(select = Min_period) inst ~latency =
  if threshold_met (initial inst).Solution.latency latency then
    Some (walk ~latency_cap:latency ~select ~stop:(Fun.const false) inst)
  else None

let reach ?(select = Min_period) inst =
  (walk ~select ~stop:(Fun.const false) inst).Solution.period
