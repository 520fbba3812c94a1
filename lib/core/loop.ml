type gen = Split.t -> j:int -> Split.candidate list
type select = Split.candidate list -> Split.candidate option

let better_mono (a : Split.candidate) (b : Split.candidate) =
  match compare a.max_piece_cycle b.max_piece_cycle with
  | 0 -> a.dlatency < b.dlatency
  | c -> c < 0

let better_bi (a : Split.candidate) (b : Split.candidate) =
  match compare a.ratio b.ratio with
  | 0 -> a.max_piece_cycle < b.max_piece_cycle
  | c -> c < 0

let select_with better = function
  | [] -> None
  | first :: rest ->
    Some (List.fold_left (fun acc c -> if better c acc then c else acc) first rest)

let select_mono = select_with better_mono
let select_bi = select_with better_bi

let gen_two config ~j = Split.two_split_candidates config ~j

let gen_three config ~j = Split.three_split_candidates config ~j

let gen_three_with_fallback config ~j =
  match Split.three_split_candidates config ~j with
  | [] -> Split.two_split_candidates config ~j
  | candidates -> candidates

let threshold_met = Pipeline_util.Tol.meets

let walk ?(latency_cap = infinity) ~gen ~select ~stop inst =
  let rec refine config =
    if stop config then config
    else begin
      let j = Split.bottleneck config in
      let candidates =
        List.filter
          (fun (c : Split.candidate) -> threshold_met c.latency latency_cap)
          (gen config ~j)
      in
      match select candidates with
      | None -> config (* no candidate improves the bottleneck *)
      | Some cand -> refine (Split.apply config cand)
    end
  in
  refine (Split.initial inst)

let minimise_latency_under_period ?latency_cap ~gen ~select inst ~period =
  let met config = threshold_met (Split.period config) period in
  let config = walk ?latency_cap ~gen ~select ~stop:met inst in
  if met config then Some (Split.to_solution config) else None

let minimise_period_under_latency ~gen ~select inst ~latency =
  if threshold_met (Split.latency (Split.initial inst)) latency then
    let config =
      walk ~latency_cap:latency ~gen ~select ~stop:(Fun.const false) inst
    in
    Some (Split.to_solution config)
  else None

let reach ~gen ~select inst =
  Split.period (walk ~gen ~select ~stop:(Fun.const false) inst)
