open Pipeline_model
open Pipeline_deal

(* First-seen-wins on the (latency, period, failure) lexicographic
   order: the sequential scan kept the earlier feasible candidate on
   ties, and merging task-local bests in enumeration order with the same
   rule reproduces it — so the oracle is bit-identical at any pool
   width (DESIGN.md §14). *)
let keep (b : Ft_heuristic.solution option) (c : Ft_heuristic.solution option) =
  match (b, c) with
  | Some b', Some c'
    when (b'.Ft_heuristic.latency, b'.Ft_heuristic.period, b'.Ft_heuristic.failure)
         <= (c'.Ft_heuristic.latency, c'.Ft_heuristic.period, c'.Ft_heuristic.failure)
    -> b
  | _, None -> b
  | _ -> c

let min_latency (inst : Instance.t) rel ~period ~failure =
  if Reliability.p rel <> Platform.p inst.platform then
    invalid_arg "Ft_exhaustive: reliability vector does not match the platform";
  if not (Float.is_finite period && period > 0.) then
    invalid_arg "Ft_exhaustive: period bound must be finite and > 0";
  if not (failure >= 0. && failure <= 1.) then
    invalid_arg "Ft_exhaustive: failure bound must be in [0,1]";
  Deal_exhaustive.fold inst ~init:None ~merge:keep ~step:(fun acc deal ->
      let cand = Ft_heuristic.evaluate inst rel deal in
      if Ft_heuristic.feasible cand ~period ~failure then keep acc (Some cand)
      else acc)
