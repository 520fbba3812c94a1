open Pipeline_model
open Pipeline_core

let threshold_met = Pipeline_util.Tol.meets

let unused_processors (inst : Instance.t) mapping =
  let p = Platform.p inst.platform in
  List.filter (fun u -> not (Mapping.uses mapping u)) (List.init p Fun.id)

(* Comm-aware target ordering (DESIGN.md §13, "Comm-aware splitting"):
   free processors are ranked by the time interval [j] would take if
   handed over whole — its input over the link from the upstream
   processor, its computation at the target's speed, its output over the
   link to the downstream processor (I/O bandwidth at the pipeline
   ends). Every candidate is still scored
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
    let cost = Cost.get inst.app inst.platform in
    let iv = Mapping.interval mapping j in
    let d = Interval.first iv and e = Interval.last iv in
    let prev = if j = 0 then Cost.io else Mapping.proc mapping (j - 1) in
    let next =
      if j = Mapping.m mapping - 1 then Cost.io else Mapping.proc mapping (j + 1)
    in
    let proxy u =
      Cost.input cost ~d ~prev ~u
      +. Cost.compute cost ~d ~e ~u
      +. Cost.output cost ~e ~u ~next
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
  Cost.bottleneck (Cost.get inst.app inst.platform) sol.Solution.mapping

(* The het stack's step: the selected candidate of the bottleneck that
   strictly lowers the period and meets the latency cap. *)
let step ~select (inst : Instance.t) (sol : Solution.t) ~cap =
  List.filter
    (fun (c : Solution.t) ->
      c.Solution.period < sol.Solution.period && threshold_met c.Solution.latency cap)
    (candidates inst sol ~j:(bottleneck inst sol))
  |> pick select sol

let stack ~select inst =
  {
    Loop.start = Pipeline_optimal.Latency.solve inst;
    period = (fun (s : Solution.t) -> s.period);
    latency = (fun (s : Solution.t) -> s.latency);
    step = step ~select inst;
  }

let minimise_latency_under_period ?(select = Min_period) inst ~period =
  Loop.minimise_latency_under_period (stack ~select inst) ~period

let minimise_period_under_latency ?(select = Min_period) inst ~latency =
  Loop.minimise_period_under_latency (stack ~select inst) ~latency

let reach ?(select = Min_period) inst = Loop.reach (stack ~select inst)
