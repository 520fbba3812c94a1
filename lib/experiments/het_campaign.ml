open Pipeline_model
module Series = Pipeline_util.Series
module Rng = Pipeline_util.Rng
module Table = Pipeline_util.Table

(* Counters of the exact het threshold machinery (DESIGN.md §13). New
   names on purpose: the golden-gated metrics dump pins the historical
   counters, so the het table must only move rows of its own. *)
let c_threshold_probes =
  Obs.Counter.make ~doc:"feasibility probes in Het_campaign.instance_threshold"
    "experiments.het.threshold_probes"

let c_search_probes =
  Obs.Counter.make
    ~doc:
      "candidate/bisection probes issued by het threshold searches \
       (Threshold probe_counter)"
    "experiments.het.search_probes"

let instance ~seed ~n ~p i =
  let tag = Hashtbl.hash (seed, "E5", n, p, i) in
  let rng = Rng.create tag in
  let app = App_generator.generate rng (App_generator.e2 ~n) in
  let platform = Platform_generator.fully_heterogeneous rng ~p in
  Instance.make ~id:i ~seed:tag app platform

let instances ?(pairs = 50) ?(seed = 2007) ~n p =
  (* Per-pair generation: each pair owns the stream derived from its
     (seed, n, p, index) tag, so generation order is irrelevant. *)
  Array.to_list
    (Pipeline_util.Pool.map (instance ~seed ~n ~p)
       (Array.init pairs Fun.id))

(* Bandwidth-matrix generator families (DESIGN.md §13). [Uniform_links]
   deliberately uses a fresh tag rather than reusing [instance]'s "E5"
   tag: the E5 figure batches stay bit-identical. *)

type family = Uniform_links | Clustered | Bottleneck | Jpeg2000

let families = [ Uniform_links; Clustered; Bottleneck; Jpeg2000 ]

let family_name = function
  | Uniform_links -> "uniform"
  | Clustered -> "clustered"
  | Bottleneck -> "bottleneck"
  | Jpeg2000 -> "jpeg2000"

let family_instance ~seed ~family ~n ~p i =
  let tag = Hashtbl.hash (seed, "E5-" ^ family_name family, n, p, i) in
  let rng = Rng.create tag in
  let app =
    match family with
    | Jpeg2000 -> App_generator.jpeg2000 ()
    | Uniform_links | Clustered | Bottleneck ->
      App_generator.generate rng (App_generator.e2 ~n)
  in
  let platform =
    match family with
    | Uniform_links -> Platform_generator.fully_heterogeneous rng ~p
    | Clustered | Jpeg2000 -> Platform_generator.clustered rng ~p
    | Bottleneck -> Platform_generator.bottleneck_link rng ~p
  in
  Instance.make ~id:i ~seed:tag app platform

let family_instances ?(pairs = 50) ?(seed = 2007) ~family ~n p =
  Array.to_list
    (Pipeline_util.Pool.map
       (family_instance ~seed ~family ~n ~p)
       (Array.init pairs Fun.id))

(* The Failure search, counted on the experiments.het.* counters so the
   historical metrics rows stay untouched. *)
let instance_threshold info inst =
  Failure.search ~counter:c_threshold_probes ~search_counter:c_search_probes
    info inst

type threshold_table = {
  n : int;
  p : int;
  pairs : int;
  table_families : family list;
  rows : (string * float list) list;
}

let threshold_table ?(pairs = 10) ?(seed = 2007) ~n ~p () =
  Obs.span (Printf.sprintf "het-thresholds:n%d-p%d" n p) @@ fun () ->
  let batches =
    List.map (fun family -> family_instances ~pairs ~seed ~family ~n p) families
  in
  let rows =
    List.map
      (fun (info : Pipeline_registry.info) ->
        let means =
          List.map
            (fun batch ->
              let ts =
                Pipeline_util.Pool.map (instance_threshold info)
                  (Array.of_list batch)
              in
              Array.fold_left ( +. ) 0. ts /. float_of_int pairs)
            batches
        in
        (info.Pipeline_registry.table_name, means))
      Pipeline_registry.het
  in
  { n; p; pairs; table_families = families; rows }

let threshold_table_header t =
  "heuristic" :: List.map family_name t.table_families

let render_threshold_table t =
  let rows =
    List.map
      (fun (name, means) ->
        name :: List.map (Table.float_cell ~decimals:2) means)
      t.rows
  in
  Printf.sprintf
    "Mean exact thresholds, het families (n=%d, p=%d, %d pairs)\n%s" t.n t.p
    t.pairs
    (Table.render (threshold_table_header t :: rows))

(* Small-instance validation against the exhaustive oracle: the ratio of
   the het heuristic's unconstrained-best period to the true optimum,
   per bandwidth family. *)
type validation = { runs : int; mean_ratio : float; max_ratio : float }

let validate ?(runs = 20) ?(seed = 2007) ~family () =
  let ratio i =
    let tag = Hashtbl.hash (seed, "het-validate-" ^ family_name family, i) in
    let rng = Rng.create tag in
    let n = Rng.int_in rng 3 8 and p = Rng.int_in rng 2 6 in
    let inst = family_instance ~seed ~family ~n ~p i in
    let optimal =
      (Pipeline_optimal.Exhaustive.min_period inst).Pipeline_core.Solution
      .period
    in
    Pipeline_het.Het_heuristics.reach inst /. optimal
  in
  (* Sequential over runs: each ratio calls the exhaustive oracle, whose
     enumeration fans out over the domain pool (Pool.fan_out) — the
     parallelism lives inside the solver, and an outer Pool.map would
     only force it back to sequential via the nested-call guard. *)
  let ratios = Array.init runs ratio in
  {
    runs;
    mean_ratio = Array.fold_left ( +. ) 0. ratios /. float_of_int runs;
    max_ratio = Array.fold_left Float.max neg_infinity ratios;
  }

(* Grid anchors valid on any platform class. *)
let period_bounds batch =
  let bounds inst =
    let app = inst.Instance.app and platform = inst.Instance.platform in
    let s_max = Platform.speed platform (Platform.fastest platform) in
    let lo = ref 0. in
    for k = 1 to Application.n app do
      lo := Float.max !lo (Application.work app k /. s_max)
    done;
    (* The best single-processor mapping always succeeds. *)
    let single = Pipeline_optimal.Latency.solve inst in
    (!lo, single.Pipeline_core.Solution.period)
  in
  Array.fold_left
    (fun (lo, hi) (l, h) -> (Float.min lo l, Float.max hi h))
    (infinity, neg_infinity)
    (Pipeline_util.Pool.map bounds (Array.of_list batch))

let latency_bounds batch =
  let bounds inst =
    let optimal =
      (Pipeline_optimal.Latency.solve inst).Pipeline_core.Solution.latency
    in
    let unconstrained =
      match
        Pipeline_het.Het_heuristics.minimise_period_under_latency inst
          ~latency:infinity
      with
      | Some sol -> Float.max optimal sol.Pipeline_core.Solution.latency
      | None -> optimal
    in
    (optimal, unconstrained)
  in
  Array.fold_left
    (fun (lo, hi) (optimal, unconstrained) ->
      (Float.min lo optimal, Float.max hi unconstrained))
    (infinity, neg_infinity)
    (Pipeline_util.Pool.map bounds (Array.of_list batch))

let baseline_point batch =
  let sols =
    List.map (fun inst -> Pipeline_core.Baseline.balanced_chains inst) batch
  in
  let avg f =
    List.fold_left (fun acc s -> acc +. f s) 0. sols
    /. float_of_int (List.length sols)
  in
  Series.make ~label:"balanced chains (baseline)"
    [
      ( avg (fun s -> s.Pipeline_core.Solution.period),
        avg (fun s -> s.Pipeline_core.Solution.latency) );
    ]

let figure ?(pairs = 50) ?(sweep_points = 15) ?(seed = 2007) ~n p =
  let batch = instances ~pairs ~seed ~n p in
  let period_lo, period_hi = period_bounds batch in
  let latency_lo, latency_hi = latency_bounds batch in
  let series =
    List.map
      (fun (info : Pipeline_registry.info) ->
        let lo, hi =
          match info.Pipeline_registry.kind with
          | Pipeline_registry.Period_fixed -> (period_lo, period_hi)
          | Pipeline_registry.Latency_fixed -> (latency_lo, latency_hi)
        in
        let thresholds = Sweep.grid ~lo ~hi ~points:sweep_points in
        Sweep.run info batch ~thresholds)
      Pipeline_registry.het
  in
  {
    Campaign.label = Printf.sprintf "Figure E5 (n=%d, p=%d)" n p;
    setup = Config.default_setup ~pairs ~sweep_points ~seed Config.E2 ~n ~p;
    series = series @ [ baseline_point batch ];
  }
