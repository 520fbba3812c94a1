open Pipeline_model
module Core_registry = Pipeline_core.Registry

type kind = Pipeline_core.Registry.kind = Period_fixed | Latency_fixed
type stack = Core | Extension | Het | Deal | Ft

type outcome = {
  mapping : Deal_mapping.t;
  period : float;
  latency : float;
  failure : float option;
}

type context = { rel : Reliability.t option; failure_bound : float option }

let default_context = { rel = None; failure_bound = None }
let default_fail_prob = 0.05
let default_failure_bound = 0.1

type info = {
  id : string;
  paper_name : string;
  table_name : string;
  kind : kind;
  stack : stack;
  solve : ?ctx:context -> Instance.t -> threshold:float -> outcome option;
  reach : (Instance.t -> float) option;
}

(* Objective values are copied from the stack's own evaluation, never
   recomputed, so a unified row returns bit-identical floats to the
   pre-unification per-stack call. *)

let outcome_of_solution (sol : Pipeline_core.Solution.t) =
  {
    mapping = Deal_mapping.of_mapping sol.mapping;
    period = sol.period;
    latency = sol.latency;
    failure = None;
  }

let solution_of_outcome o =
  Option.map
    (fun mapping ->
      { Pipeline_core.Solution.mapping; period = o.period; latency = o.latency })
    (Deal_mapping.to_mapping o.mapping)

let of_core (info : Core_registry.info) =
  {
    id = info.id;
    paper_name = info.paper_name;
    table_name = info.table_name;
    kind = info.kind;
    stack = Core;
    solve =
      (fun ?ctx:_ inst ~threshold ->
        Option.map outcome_of_solution (info.solve inst ~threshold));
    reach = Some info.reach;
  }

let of_core_extension info = { (of_core info) with stack = Extension }

let paper = List.map of_core Core_registry.all
let extended = List.map of_core_extension Core_registry.extended

let het_row ~id ~paper_name ~table_name ~kind ~select =
  {
    id;
    paper_name;
    table_name;
    kind;
    stack = Het;
    solve =
      (fun ?ctx:_ inst ~threshold ->
        let result =
          match kind with
          | Period_fixed ->
            Pipeline_het.Het_heuristics.minimise_latency_under_period ~select
              inst ~period:threshold
          | Latency_fixed ->
            Pipeline_het.Het_heuristics.minimise_period_under_latency ~select
              inst ~latency:threshold
        in
        Option.map outcome_of_solution result);
    reach =
      Some
        (match kind with
        | Period_fixed -> Pipeline_het.Het_heuristics.reach ~select
        | Latency_fixed ->
          fun inst ->
            (Pipeline_het.Het_heuristics.initial inst).Pipeline_core.Solution
            .latency);
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
        (fun ?ctx:_ inst ~threshold ->
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
        (fun ?ctx:_ inst ~threshold ->
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
        (fun ?(ctx = default_context) (inst : Instance.t) ~threshold ->
          let rel =
            match ctx.rel with
            | Some rel -> rel
            | None ->
              Reliability.uniform
                ~p:(Platform.p inst.platform)
                default_fail_prob
          in
          let failure =
            Option.value ctx.failure_bound ~default:default_failure_bound
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
               ~period:threshold ~failure));
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
