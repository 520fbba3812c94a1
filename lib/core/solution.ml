open Pipeline_model

type t = { mapping : Mapping.t; period : float; latency : float }

let of_mapping (inst : Instance.t) mapping =
  let s = Cost.summary (Cost.get inst.app inst.platform) mapping in
  { mapping; period = s.Cost.period; latency = s.Cost.latency }

let respects_period t p = Pipeline_util.Tol.meets t.period p
let respects_latency t l = Pipeline_util.Tol.meets t.latency l

let front points =
  let sorted =
    List.stable_sort
      (fun a b ->
        match compare a.period b.period with 0 -> compare a.latency b.latency | c -> c)
      points
  in
  let rec sweep kept points =
    match (kept, points) with
    | _, [] -> List.rev kept
    | last :: _, s :: rest when respects_latency last s.latency -> sweep kept rest
    | last :: older, s :: rest when respects_period s last.period -> sweep (s :: older) rest
    | _, s :: rest -> sweep (s :: kept) rest
  in
  sweep [] sorted

let pp fmt t =
  Format.fprintf fmt "%s period=%g latency=%g" (Mapping.to_string t.mapping)
    t.period t.latency
