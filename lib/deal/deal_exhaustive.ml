open Pipeline_model

(* Registered here, not in Exhaustive, so that only binaries linking the
   deal oracle list these counters. *)
let rule =
  Pipeline_optimal.Exhaustive.deal
    ~mappings:
      (Obs.Counter.make ~doc:"deal mappings enumerated by Deal_exhaustive"
         "deal.exhaustive.mappings")
    ~branches:
      (Obs.Counter.make ~doc:"frontier tasks fanned out by Deal_exhaustive"
         "deal.exhaustive.branches")

let fold inst ~init ~step ~merge =
  Pipeline_optimal.Exhaustive.fold rule inst ~init ~merge ~step:(fun acc leaf ->
      step acc (Pipeline_optimal.Exhaustive.mapping leaf))

let min_period (inst : Instance.t) =
  (* First-seen-wins on (period, latency) ties, per task; merging the
     task winners in index order applies the same rule, so the result
     matches the sequential scan at any parallelism degree. *)
  let keep_acc (b : Deal_heuristic.solution) (c : Deal_heuristic.solution) =
    b.period < c.period || (b.period = c.period && b.latency <= c.latency)
  in
  let merge acc candidate =
    match (acc, candidate) with
    | Some b, Some c when keep_acc b c -> acc
    | _, None -> acc
    | _ -> candidate
  in
  let step acc mapping =
    let s = Cost.deal_summary (Cost.get inst.app inst.platform) mapping in
    merge acc (Some { Deal_heuristic.mapping; period = s.period; latency = s.latency })
  in
  match fold inst ~init:None ~step ~merge with
  | Some sol -> sol
  | None -> assert false (* the single-interval single-replica mapping exists *)
