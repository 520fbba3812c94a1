open Pipeline_model
open Pipeline_core

type kind = Period_fixed | Latency_fixed
type stack = Core | Extension | Het | Deal | Ft

type outcome = {
  mapping : Deal_mapping.t;
  period : float;
  latency : float;
  failure : float option;
}

let default_fail_prob = 0.05
let default_failure_bound = 0.1

type info = {
  id : string;
  paper_name : string;
  table_name : string;
  kind : kind;
  stack : stack;
  solve : Instance.t -> threshold:float -> outcome option;
  reach : (Instance.t -> float) option;
}

(* Objective values are copied from the stack's own evaluation, never
   recomputed, so a unified row returns bit-identical floats to the
   pre-unification per-stack call. *)

let outcome_of_solution (sol : Solution.t) =
  {
    mapping = Deal_mapping.of_mapping sol.mapping;
    period = sol.period;
    latency = sol.latency;
    failure = None;
  }

let solution_of_outcome o =
  Option.map
    (fun mapping -> { Solution.mapping; period = o.period; latency = o.latency })
    (Deal_mapping.to_mapping o.mapping)

let plain = Option.map outcome_of_solution

(* The latency-fixed loop succeeds iff its starting mapping meets the
   budget. *)
let start_latency inst = Split.latency (Split.initial inst)

(* A period-fixed row's reach: the final period of its uncapped walk. *)
let walk_reach arity rule inst = Loop.reach (Split.stack ~arity ~rule inst)

let paper =
  [
    {
      id = "h1-sp-mono-p";
      paper_name = "Sp mono, P fix";
      table_name = "H1";
      kind = Period_fixed;
      stack = Core;
      solve = (fun inst ~threshold -> plain (Sp_mono_p.solve inst ~period:threshold));
      reach = Some Sp_mono_p.reach;
    };
    {
      id = "h2-3explo-mono";
      paper_name = "3-Explo mono";
      table_name = "H2";
      kind = Period_fixed;
      stack = Core;
      solve = (fun inst ~threshold -> plain (Explo_mono.solve inst ~period:threshold));
      reach = Some (walk_reach Split.Three Split.Mono);
    };
    {
      id = "h3-3explo-bi";
      paper_name = "3-Explo bi";
      table_name = "H3";
      kind = Period_fixed;
      stack = Core;
      solve = (fun inst ~threshold -> plain (Explo_bi.solve inst ~period:threshold));
      reach = Some (walk_reach Split.Three Split.Bi);
    };
    {
      id = "h4-sp-bi-p";
      paper_name = "Sp bi, P fix";
      table_name = "H4";
      kind = Period_fixed;
      stack = Core;
      solve = (fun inst ~threshold -> plain (Sp_bi_p.solve inst ~period:threshold));
      reach = Some (walk_reach Split.Two Split.Bi);
    };
    {
      id = "h5-sp-mono-l";
      paper_name = "Sp mono, L fix";
      table_name = "H5";
      kind = Latency_fixed;
      stack = Core;
      solve = (fun inst ~threshold -> plain (Sp_mono_l.solve inst ~latency:threshold));
      reach = Some start_latency;
    };
    {
      id = "h6-sp-bi-l";
      paper_name = "Sp bi, L fix";
      table_name = "H6";
      kind = Latency_fixed;
      stack = Core;
      solve = (fun inst ~threshold -> plain (Sp_bi_l.solve inst ~latency:threshold));
      reach = Some start_latency;
    };
  ]

let extended =
  [
    {
      id = "h2x-3explo-mono-fb";
      paper_name = "3-Explo mono (+fb)";
      table_name = "H2x";
      kind = Period_fixed;
      stack = Extension;
      solve =
        (fun inst ~threshold -> plain (Explo_fallback.solve_mono inst ~period:threshold));
      reach = Some (walk_reach Split.Three_or_two Split.Mono);
    };
    {
      id = "h3x-3explo-bi-fb";
      paper_name = "3-Explo bi (+fb)";
      table_name = "H3x";
      kind = Period_fixed;
      stack = Extension;
      solve =
        (fun inst ~threshold -> plain (Explo_fallback.solve_bi inst ~period:threshold));
      reach = Some (walk_reach Split.Three_or_two Split.Bi);
    };
  ]

let het_row ~id ~paper_name ~table_name ~kind ~select =
  {
    id;
    paper_name;
    table_name;
    kind;
    stack = Het;
    solve =
      (fun inst ~threshold ->
        let result =
          match kind with
          | Period_fixed ->
            Pipeline_het.Het_heuristics.minimise_latency_under_period ~select
              inst ~period:threshold
          | Latency_fixed ->
            Pipeline_het.Het_heuristics.minimise_period_under_latency ~select
              inst ~latency:threshold
        in
        plain result);
    reach =
      Some
        (match kind with
        | Period_fixed -> Pipeline_het.Het_heuristics.reach ~select
        | Latency_fixed ->
          fun inst -> (Pipeline_optimal.Latency.solve inst).Solution.latency);
  }

let het =
  [
    het_row ~id:"het-sp-mono-p" ~paper_name:"Het split mono, P fix"
      ~table_name:"HetP" ~kind:Period_fixed
      ~select:Pipeline_het.Het_heuristics.Min_period;
    het_row ~id:"het-sp-bi-p" ~paper_name:"Het split bi, P fix"
      ~table_name:"HetPb" ~kind:Period_fixed
      ~select:Pipeline_het.Het_heuristics.Min_ratio;
    het_row ~id:"het-sp-mono-l" ~paper_name:"Het split mono, L fix"
      ~table_name:"HetL" ~kind:Latency_fixed
      ~select:Pipeline_het.Het_heuristics.Min_period;
    het_row ~id:"het-sp-bi-l" ~paper_name:"Het split bi, L fix"
      ~table_name:"HetLb" ~kind:Latency_fixed
      ~select:Pipeline_het.Het_heuristics.Min_ratio;
  ]

let outcome_of_deal (sol : Pipeline_deal.Deal_heuristic.solution) =
  {
    mapping = sol.mapping;
    period = sol.period;
    latency = sol.latency;
    failure = None;
  }

let deal =
  [
    {
      id = "deal-split-rep-p";
      paper_name = "Deal split+rep, P fix";
      table_name = "DealP";
      kind = Period_fixed;
      stack = Deal;
      solve =
        (fun inst ~threshold ->
          Option.map outcome_of_deal
            (Pipeline_deal.Deal_heuristic.minimise_latency_under_period inst
               ~period:threshold));
      reach = Some Pipeline_deal.Deal_heuristic.reach;
    };
    {
      id = "deal-split-rep-l";
      paper_name = "Deal split+rep, L fix";
      table_name = "DealL";
      kind = Latency_fixed;
      stack = Deal;
      solve =
        (fun inst ~threshold ->
          Option.map outcome_of_deal
            (Pipeline_deal.Deal_heuristic.minimise_period_under_latency inst
               ~latency:threshold));
      reach =
        Some
          (fun inst -> (Pipeline_deal.Deal_heuristic.initial inst).latency);
    };
  ]

let ft =
  [
    {
      id = "ft-rep-tri";
      paper_name = "Ft replicate, tri";
      table_name = "FtTri";
      kind = Period_fixed;
      stack = Ft;
      solve =
        (fun (inst : Instance.t) ~threshold ->
          let rel =
            Reliability.uniform ~p:(Platform.p inst.platform) default_fail_prob
          in
          Option.map
            (fun (sol : Pipeline_ft.Ft_heuristic.solution) ->
              {
                mapping = sol.mapping;
                period = sol.period;
                latency = sol.latency;
                failure = Some sol.failure;
              })
            (Pipeline_ft.Ft_heuristic.minimise_latency inst rel
               ~period:threshold ~failure:default_failure_bound));
      (* The replication step reads the bound. *)
      reach = None;
    };
  ]

let all = paper @ extended @ het @ deal @ ft

let find key =
  let k = String.lowercase_ascii key in
  List.find_opt
    (fun info ->
      String.lowercase_ascii info.id = k
      || String.lowercase_ascii info.table_name = k
      || String.lowercase_ascii info.paper_name = k)
    all

(* The one resolution path shared by the CLI and the serve daemon, so
   the diagnostics (and therefore the CLI's exit-2 messages and the
   server's HTTP 400 bodies) cannot drift apart. *)
let resolve ?kind key =
  match find key with
  | None ->
    Error
      (Printf.sprintf
         "unknown heuristic %s (run 'pipeline-sched list' for the registry)" key)
  | Some info -> (
    match kind with
    | Some k when info.kind <> k ->
      Error (Printf.sprintf "heuristic %s does not match the threshold kind" key)
    | _ -> Ok info)

(* The platform-kind dispatch both surfaces share, so that the CLI and
   the daemon answer the same requests (DESIGN.md §13): the DP on
   comm-homogeneous platforms, the exhaustive oracle behind its guard
   otherwise. *)
module Bicriteria = Pipeline_optimal.Bicriteria
module Exhaustive = Pipeline_optimal.Exhaustive

let exact_by (inst : Instance.t) dp exhaustive =
  if Platform.is_comm_homogeneous inst.platform then Ok (dp inst)
  else
    match Exhaustive.oversized ~n:(Application.n inst.app) ~p:(Platform.p inst.platform) with
    | Some diagnostic -> Error diagnostic
    | None -> Ok (exhaustive inst)

let exact inst kind ~threshold =
  match kind with
  | Period_fixed ->
    exact_by inst
      (Bicriteria.min_latency_under_period ~period:threshold)
      (Exhaustive.min_latency_under_period ~period:threshold)
  | Latency_fixed ->
    exact_by inst
      (Bicriteria.min_period_under_latency ~latency:threshold)
      (Exhaustive.min_period_under_latency ~latency:threshold)

let exact_pareto inst = exact_by inst Bicriteria.pareto Exhaustive.pareto

let default_mapping (inst : Instance.t) ~period =
  if Platform.is_comm_homogeneous inst.platform then Sp_mono_p.solve inst ~period
  else Pipeline_het.Het_heuristics.minimise_latency_under_period inst ~period
