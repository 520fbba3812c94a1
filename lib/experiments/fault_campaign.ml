open Pipeline_model
module Rng = Pipeline_util.Rng
module Stats = Pipeline_util.Stats
module W = Pipeline_sim.Workload_sim
module Ft_remap = Pipeline_ft.Ft_remap

type point = {
  crashes : int;
  survival : float;
  survival_recovery : float;
  remap_success : float;
  degraded_period : float;
  migrated_fraction : float;
}

type campaign = {
  setup : Config.setup;
  instances : int;
  datasets : int;
  points : point list;
}

(* The campaign's standard mapping: H1 at 0.6 x the single-processor
   period, like the robustness experiment. *)
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

(* Crash [count] distinct processors, enrolled ones first so the faults
   hit the pipeline; one uniform crash instant each over the first half
   of the nominal window. *)
let draw_crashes rng (inst : Instance.t) mapping ~count ~datasets =
  let p = Platform.p inst.platform in
  let enrolled, spare =
    List.partition (fun u -> Mapping.uses mapping u) (List.init p Fun.id)
  in
  let shuffled part =
    let a = Array.of_list part in
    Rng.shuffle rng a;
    Array.to_list a
  in
  let victims =
    List.filteri (fun i _ -> i < count) (shuffled enrolled @ shuffled spare)
  in
  let period = Metrics.period inst.app inst.platform mapping in
  let horizon = 0.5 *. float_of_int datasets *. period in
  List.map
    (fun u -> (u, Rng.float_in rng 0. (Float.max horizon 1.)))
    victims

(* Everything one mapped pair contributes to a campaign point. The
   whole computation is a pure function of (instance, mapping,
   threshold, count): the crash draws come from a task-private RNG
   stream derived from the instance seed, so the pairs can fan out
   across the domain pool. *)
type pair_outcome = {
  o_survival : float;
  o_recovery : float;
  o_success : float;
  o_ratio : float option;
  o_migration : float option;
}

let pair_outcome ~datasets ~count ((inst : Instance.t), mapping, threshold) =
  let count = min count (Platform.p inst.platform - 1) in
  let rng = Rng.create ((inst.Instance.seed * 31) + (count * 7) + 11) in
  let crashes = draw_crashes rng inst mapping ~count ~datasets in
  let sim retry crash_of =
    W.run
      ~config:
        {
          W.default_config with
          datasets;
          seed = inst.Instance.seed;
          crashes = List.map crash_of crashes;
          retry;
        }
      inst mapping
  in
  let permanent =
    sim W.no_retry (fun (u, at) -> { W.at; proc = u; recover_at = None })
  in
  let period = Metrics.period inst.app inst.platform mapping in
  let recovered =
    sim
      { W.max_retries = 3; backoff = period }
      (fun (u, at) ->
        { W.at; proc = u; recover_at = Some (at +. (10. *. period)) })
  in
  let failed = List.map fst crashes in
  let success, ratio, migration =
    match
      Ft_remap.remap inst ~before:mapping ~failed ~threshold:(threshold *. 1.2)
    with
    | None -> (0., None, None)
    | Some outcome ->
      ( (if outcome.Ft_remap.met_threshold then 1. else 0.),
        Some (outcome.Ft_remap.period /. period),
        Some
          (float_of_int outcome.Ft_remap.migrated_stages
          /. float_of_int (Application.n inst.app)) )
  in
  {
    o_survival = W.survival permanent;
    o_recovery = W.survival recovered;
    o_success = success;
    o_ratio = ratio;
    o_migration = migration;
  }

let run ?(crash_counts = [ 0; 1; 2; 3 ]) ?(datasets = 150) (setup : Config.setup) =
  Obs.span ("fault-campaign:" ^ Config.setup_label setup) @@ fun () ->
  let mapped = Array.of_list (mapped_instances setup) in
  let point count =
    let outcomes =
      Obs.span (Printf.sprintf "fault-point:%d-crashes" count) (fun () ->
          Pipeline_util.Pool.map (pair_outcome ~datasets ~count) mapped)
    in
    (* Prepending in index order rebuilds exactly the reversed lists the
       sequential loop accumulated, so each mean sums in the same order
       and the campaign stays bit-identical at any --jobs. *)
    let collect f =
      Array.fold_left
        (fun acc o -> match f o with None -> acc | Some v -> v :: acc)
        [] outcomes
    in
    let survivals = collect (fun o -> Some o.o_survival)
    and recoveries = collect (fun o -> Some o.o_recovery)
    and successes = collect (fun o -> Some o.o_success)
    and ratios = collect (fun o -> o.o_ratio)
    and migrations = collect (fun o -> o.o_migration) in
    let mean = function [] -> nan | values -> Stats.mean values in
    {
      crashes = count;
      survival = mean survivals;
      survival_recovery = mean recoveries;
      remap_success = mean successes;
      degraded_period = mean ratios;
      migrated_fraction = mean migrations;
    }
  in
  {
    setup;
    instances = Array.length mapped;
    datasets;
    points = List.map point (List.sort_uniq compare crash_counts);
  }

let header =
  [ "crashes"; "survival"; "surv+recov"; "remap ok"; "period x"; "migrated" ]

let rows campaign =
  List.map
    (fun pt ->
      [
        string_of_int pt.crashes;
        Printf.sprintf "%.3f" pt.survival;
        Printf.sprintf "%.3f" pt.survival_recovery;
        Printf.sprintf "%.3f" pt.remap_success;
        Printf.sprintf "%.3f" pt.degraded_period;
        Printf.sprintf "%.3f" pt.migrated_fraction;
      ])
    campaign.points

let render campaign =
  Printf.sprintf "%s: %d mapped instances, %d data sets each\n%s"
    (Config.setup_label campaign.setup)
    campaign.instances campaign.datasets
    (Pipeline_util.Table.render (header :: rows campaign))

let to_csv campaign =
  Pipeline_util.Csv.csv_of_rows ~header (rows campaign)

let write ~dir campaign =
  let path =
    Filename.concat dir
      (Printf.sprintf "fault-campaign-%s.csv"
         (Report.slug (Config.setup_label campaign.setup)))
  in
  Pipeline_util.Csv.to_file path (to_csv campaign);
  [ path ]
