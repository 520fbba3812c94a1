open Pipeline_model
module Registry = Pipeline_registry
module Table = Pipeline_util.Table

let c_probes =
  Obs.Counter.make ~doc:"feasibility probes in Failure.instance_threshold"
    "experiments.threshold_probes"

(* The latency boundaries sit strictly between the acceptance slack
   (1e-9, {!Pipeline_util.Tol.accept_rel}) and the full bisection grain,
   so the adaptive bisection may stop as soon as the bracket is
   invisible at the acceptance scale. *)
let latency_rel = 1e-10

(* Period-direction rows flip feasibility at an achievable period — a
   member of the finite candidate set — so their boundary is found
   exactly by binary search over that set (DESIGN.md §9). The het rows
   search the fully-het configuration family of DESIGN.md §13 on any
   platform kind. Only stacks whose achievable periods leave the
   plain-interval grid keep the adaptive bisection: the ft rows charge
   replication overheads on top of the plain cycle, and the deal grid
   assumes a comm-homogeneous platform.

   Rows with a [reach] answer every probe with one comparison against
   one walk, computed on the first probe; only ft re-solves at each
   probe (DESIGN.md §9). Past the array cap on uniform deltas the
   plain grid is searched on the lattice, with the same answer
   (DESIGN.md §11). *)
let search ~counter ?search_counter (info : Registry.info) inst =
  let meets =
    match info.reach with
    | Some reach ->
      let reach = lazy (reach inst) in
      fun threshold -> Pipeline_util.Tol.meets (Lazy.force reach) threshold
    | None -> fun threshold -> info.solve inst ~threshold <> None
  in
  let probes = ref 0 in
  let succeeds threshold =
    incr probes;
    meets threshold
  in
  let bisection () =
    (* Bracket the boundary: 0 always fails (periods and latencies are
       positive). [hi_start] succeeds for every row but pathological
       ones; double it until it does, probing each top once. *)
    let hi_start =
      match info.kind with
      | Registry.Period_fixed -> Instance.single_proc_period inst
      | Registry.Latency_fixed -> Instance.optimal_latency inst
    in
    let hi = ref (Float.max hi_start 1e-9) in
    while not (succeeds !hi) do
      hi := !hi *. 2.
    done;
    let b =
      Threshold.bisect ~max_probes:40 ~rel:latency_rel
        ?probe_counter:search_counter ~lo:0. ~hi:!hi ~feasible:succeeds ()
    in
    b.Threshold.lo
  in
  let probe t = if succeeds t then Some () else None in
  let cost () = Cost.get inst.app inst.platform in
  let comm_hom = Platform.is_comm_homogeneous inst.platform in
  (* [None] when the row has no candidate grid, or when even its top
     candidate fails (the heuristic rejects thresholds the
     single-processor mapping meets): the widening bisection answers. *)
  let found =
    match (info.kind, info.stack) with
    | Registry.Latency_fixed, _ | Registry.Period_fixed, Registry.Ft -> None
    | Registry.Period_fixed, (Registry.Core | Registry.Extension) when not comm_hom ->
      None
    | Registry.Period_fixed, (Registry.Core | Registry.Extension | Registry.Het) ->
      Threshold.search_periods ?probe_counter:search_counter (cost ()) ~probe ()
    | Registry.Period_fixed, Registry.Deal ->
      if comm_hom then
        Threshold.search ?probe_counter:search_counter
          ~candidates:(Candidates.deal_periods (cost ())) ~probe ()
      else None
  in
  let result =
    match found with Some found -> found.Threshold.threshold | None -> bisection ()
  in
  Obs.Counter.add counter !probes;
  result

let instance_threshold info inst = search ~counter:c_probes info inst

(* Each per-instance search is independent, so the per-pair loop fans
   out across the domain pool; folding the result array in index order
   keeps the summation order — and therefore every table cell —
   identical to the sequential run. *)
let instance_thresholds info instances =
  Pipeline_util.Pool.map (instance_threshold info) (Array.of_list instances)

let average_threshold (info : Registry.info) instances =
  let total = Array.fold_left ( +. ) 0. (instance_thresholds info instances) in
  total /. float_of_int (List.length instances)

let max_threshold (info : Registry.info) instances =
  Array.fold_left Float.max 0. (instance_thresholds info instances)

type aggregate = Mean | Max

type table = {
  experiment : Config.experiment;
  p : int;
  ns : int list;
  rows : (string * float list) list;
}

let table ?(aggregate = Mean) ?(pairs = 50) ?(seed = 2007) experiment ~p ~ns =
  Obs.span
    (Printf.sprintf "table1:%s-p%d" (Config.experiment_name experiment) p)
  @@ fun () ->
  let batches =
    List.map
      (fun n ->
        Workload.instances (Config.default_setup ~pairs ~seed experiment ~n ~p))
      ns
  in
  let measure =
    match aggregate with Mean -> average_threshold | Max -> max_threshold
  in
  let rows =
    List.map
      (fun (info : Registry.info) ->
        (info.table_name, List.map (fun batch -> measure info batch) batches))
      Registry.paper
  in
  { experiment; p; ns; rows }

let to_cells t =
  let header =
    "Heur." :: List.map (fun n -> Printf.sprintf "n=%d" n) t.ns
  in
  let body =
    List.map
      (fun (name, values) -> name :: List.map (Table.float_cell ~decimals:1) values)
      t.rows
  in
  header :: body

let render t = Table.render (to_cells t)
let render_markdown t = Table.render_markdown (to_cells t)
