open Pipeline_model
module Rng = Pipeline_util.Rng
module Stats = Pipeline_util.Stats
module S = Pipeline_stream
module W = Pipeline_sim.Workload_sim

type row = {
  shape : string;
  strategy : string;
  completion : float;
  migrations : float;
  migrated_stages : float;
  migration_volume : float;
  reaction_mean : float;
  reaction_max : float;
  degradation : float;
  segments : float;
  full_solves : float;
  repairs : float;
}

type campaign = {
  setup : Config.setup;
  instances : int;
  datasets : int;
  rows : row list;
}

(* The fault campaign's convention: H1 at 0.6 x the single-processor
   period. *)
let mapped_instances setup =
  let h1 =
    match Pipeline_registry.find "h1-sp-mono-p" with
    | Some h -> h
    | None -> assert false
  in
  List.filter_map Fun.id
    (Array.to_list
       (Pipeline_util.Pool.map
          (fun (inst : Instance.t) ->
            let threshold = Instance.single_proc_period inst *. 0.6 in
            Option.bind (h1.Pipeline_registry.solve inst ~threshold)
              (fun (o : Pipeline_registry.outcome) ->
                Option.map
                  (fun mapping -> (inst, mapping, threshold))
                  (Deal_mapping.to_mapping o.mapping)))
          (Array.of_list (Workload.instances setup))))

let shapes threshold =
  [
    ( "bursty",
      S.Arrival_trace.Bursty
        { rate = 0.25 /. threshold; burst = 7; spread = 0.5 *. threshold } );
    ( "diurnal",
      S.Arrival_trace.Diurnal
        {
          period = 50. *. threshold;
          peak = 1.5 /. threshold;
          trough = 0.5 /. threshold;
        } );
    ("heavy-tailed", S.Arrival_trace.Heavy_tailed { rate = 1. /. threshold; alpha = 1.8 });
  ]

(* A churn script for one (instance, shape): two crash/recover cycles —
   enrolled processors first so the faults hit the pipeline — and one
   slowdown, all strictly inside the nominal window and on distinct
   processors so the per-processor sequencing rules hold trivially. *)
let draw_churn rng (inst : Instance.t) mapping ~threshold ~datasets =
  let p = Platform.p inst.platform in
  let horizon = float_of_int datasets *. threshold in
  let enrolled, spare =
    List.partition (fun u -> Mapping.uses mapping u) (List.init p Fun.id)
  in
  let shuffled part =
    let a = Array.of_list part in
    Rng.shuffle rng a;
    Array.to_list a
  in
  let ordered = shuffled enrolled @ shuffled spare in
  let crash_victims = List.filteri (fun i _ -> i < min 2 (p - 1)) ordered in
  let crash_events =
    List.concat_map
      (fun u ->
        let at = Rng.float_in rng (0.05 *. horizon) (0.5 *. horizon) in
        [
          { S.Churn.at; proc = u; kind = S.Churn.Crash };
          { S.Churn.at = at +. (10. *. threshold); proc = u; kind = S.Churn.Recover };
        ])
      crash_victims
  in
  let slow_events =
    match List.filteri (fun i _ -> i >= min 2 (p - 1)) ordered with
    | [] -> []
    | u :: _ ->
      let at = Rng.float_in rng (0.05 *. horizon) (0.5 *. horizon) in
      let factor = Rng.float_in rng 0.4 0.8 in
      [ { S.Churn.at; proc = u; kind = S.Churn.Speed factor } ]
  in
  crash_events @ slow_events

type run_metrics = {
  m_completion : float;
  m_migrations : float;
  m_stages : float;
  m_volume : float;
  m_react_mean : float;
  m_react_max : float;
  m_degradation : float;
  m_segments : float;
  m_solves : float;
  m_repairs : float;
}

let metrics_of_stats (stats : S.Stream_sim.stats) =
  let count pred =
    List.length (List.filter pred stats.S.Stream_sim.reactions)
  in
  {
    m_completion = W.survival stats.S.Stream_sim.workload;
    m_migrations = float_of_int stats.S.Stream_sim.migrations;
    m_stages = float_of_int stats.S.Stream_sim.migrated_stages;
    m_volume = stats.S.Stream_sim.migration_volume;
    m_react_mean = stats.S.Stream_sim.reaction_mean;
    m_react_max = stats.S.Stream_sim.reaction_max;
    m_degradation = stats.S.Stream_sim.degradation;
    m_segments = float_of_int stats.S.Stream_sim.segments;
    m_solves =
      float_of_int
        (count (fun (r : S.Controller.reaction) ->
             match r.S.Controller.mode with
             | Some S.Resolver.Solved | Some S.Resolver.Fallback -> true
             | _ -> false));
    m_repairs =
      float_of_int
        (count (fun (r : S.Controller.reaction) ->
             r.S.Controller.mode = Some S.Resolver.Repaired));
  }

(* Everything one mapped pair contributes: for each shape, one scenario
   (trace + churn) run under both strategies. Pure function of the pair
   — RNG streams derive from the instance seed — so pairs fan out
   across the domain pool. *)
let pair_outcome ~datasets ((inst : Instance.t), mapping, threshold) =
  List.mapi
    (fun shape_idx (shape, spec) ->
      let rng = Rng.create ((inst.Instance.seed * 31) + (shape_idx * 7) + 17) in
      let arrivals = S.Arrival_trace.generate rng spec ~count:datasets in
      let churn = draw_churn rng inst mapping ~threshold ~datasets in
      let run strategy =
        let controller =
          { (S.Controller.default ~threshold) with S.Controller.strategy }
        in
        let config =
          {
            S.Stream_sim.controller;
            arrivals;
            churn;
            noise = W.No_noise;
            retry = { W.max_retries = 3; backoff = threshold };
            seed = inst.Instance.seed;
          }
        in
        metrics_of_stats (S.Stream_sim.run ~config inst ~initial:mapping)
      in
      (shape, run `Warm, run `Cold))
    (shapes threshold)

let run ?(datasets = 150) (setup : Config.setup) =
  Obs.span ("streaming:" ^ Config.setup_label setup) @@ fun () ->
  let mapped = Array.of_list (mapped_instances setup) in
  let outcomes = Pipeline_util.Pool.map (pair_outcome ~datasets) mapped in
  let shape_names =
    match Array.length outcomes with
    | 0 -> List.map fst (shapes 1.)
    | _ -> List.map (fun (shape, _, _) -> shape) outcomes.(0)
  in
  let rows =
    List.concat_map
      (fun shape ->
        List.map
          (fun (strategy, pick) ->
            (* Index-order fold: each mean sums in array order, so the
               campaign is bit-identical at any --jobs. *)
            let collect f =
              Array.fold_left
                (fun acc per_pair ->
                  List.fold_left
                    (fun acc (s, warm, cold) ->
                      if s = shape then f (pick (warm, cold)) :: acc else acc)
                    acc per_pair)
                [] outcomes
            in
            let mean f = match collect f with [] -> nan | vs -> Stats.mean vs in
            {
              shape;
              strategy;
              completion = mean (fun m -> m.m_completion);
              migrations = mean (fun m -> m.m_migrations);
              migrated_stages = mean (fun m -> m.m_stages);
              migration_volume = mean (fun m -> m.m_volume);
              reaction_mean = mean (fun m -> m.m_react_mean);
              reaction_max = mean (fun m -> m.m_react_max);
              degradation = mean (fun m -> m.m_degradation);
              segments = mean (fun m -> m.m_segments);
              full_solves = mean (fun m -> m.m_solves);
              repairs = mean (fun m -> m.m_repairs);
            })
          [ ("warm", fst); ("cold", snd) ])
      shape_names
  in
  { setup; instances = Array.length mapped; datasets; rows }

let header =
  [
    "shape"; "strategy"; "completion"; "migrations"; "stages"; "volume";
    "react mean"; "react max"; "degradation"; "segments"; "solves"; "repairs";
  ]

let rows_of campaign =
  List.map
    (fun r ->
      [
        r.shape;
        r.strategy;
        Printf.sprintf "%.3f" r.completion;
        Printf.sprintf "%.2f" r.migrations;
        Printf.sprintf "%.2f" r.migrated_stages;
        Printf.sprintf "%.1f" r.migration_volume;
        Printf.sprintf "%.3f" r.reaction_mean;
        Printf.sprintf "%.3f" r.reaction_max;
        Printf.sprintf "%.3f" r.degradation;
        Printf.sprintf "%.2f" r.segments;
        Printf.sprintf "%.2f" r.full_solves;
        Printf.sprintf "%.2f" r.repairs;
      ])
    campaign.rows

let render campaign =
  Printf.sprintf "%s: %d mapped instances, %d data sets each\n%s"
    (Config.setup_label campaign.setup)
    campaign.instances campaign.datasets
    (Pipeline_util.Table.render (header :: rows_of campaign))

let to_csv campaign = Pipeline_util.Csv.csv_of_rows ~header (rows_of campaign)

let write ~dir campaign =
  let path =
    Filename.concat dir
      (Printf.sprintf "streaming-%s.csv"
         (Report.slug (Config.setup_label campaign.setup)))
  in
  Pipeline_util.Csv.to_file path (to_csv campaign);
  [ path ]
