open Pipeline_model
open Pipeline_core

let check_alpha alpha =
  if not (alpha >= 0. && alpha <= 1.) then
    invalid_arg "Scalarised: alpha must be in [0,1]"

let value ~alpha (sol : Solution.t) =
  (alpha *. sol.Solution.period) +. ((1. -. alpha) *. sol.Solution.latency)

let best_of ~alpha solutions =
  check_alpha alpha;
  match solutions with
  | [] -> None
  | first :: rest ->
    Some
      (List.fold_left
         (fun acc sol -> if value ~alpha sol < value ~alpha acc then sol else acc)
         first rest)

let optimal inst ~alpha =
  check_alpha alpha;
  match best_of ~alpha (Bicriteria.pareto inst) with
  | Some sol -> sol
  | None -> assert false (* the front is never empty *)

(* H1's sweep: 20 period thresholds between the trivial bounds. *)
let points = 20

let heuristic inst ~alpha =
  check_alpha alpha;
  let hi = Instance.single_proc_period inst in
  (* A generous lower anchor; infeasible thresholds simply yield no
     solution and drop out. *)
  let lo = hi /. float_of_int (max 1 (Platform.p inst.platform)) in
  let thresholds =
    List.init points (fun i ->
        lo +. ((hi -. lo) *. float_of_int i /. float_of_int (points - 1)))
  in
  let solutions =
    List.filter_map (fun t -> Sp_mono_p.solve inst ~period:t) thresholds
  in
  match best_of ~alpha solutions with
  | Some sol -> sol
  | None ->
    (* The single-processor threshold is always feasible, so this only
       happens if [thresholds] missed it by rounding; fall back. *)
    Solution.of_mapping inst (Instance.single_proc_mapping inst)
