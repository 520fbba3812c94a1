open Pipeline_model
module Rng = Pipeline_util.Rng
module Table = Pipeline_util.Table

(* The E6 web-scale ladder (DESIGN.md §11): one deterministic instance
   per (n, p) size, solved by Nicol's chains solver (which also gives
   the exact all-fastest relaxation) and by the H1 splitting heuristic.
   Everything here is sequential and moves no Obs counter, so the golden
   metrics of the paper-sized sections stay byte-identical at any
   --jobs. Wall-clocks come from the caller-supplied [clock] and never
   enter the CSV. *)

type row = {
  n : int;
  p : int;
  nicol_bottleneck : float;  (* exact chains bottleneck over the works *)
  exact_period : float;  (* exact min period, all-fastest relaxation *)
  exact_intervals : int;  (* intervals of Nicol's witness *)
  h1_factor : float;  (* threshold = factor × exact_period (0 = fallback) *)
  h1_period : float;
  h1_latency : float;
  h1_intervals : int;
}

type timings = {
  build_s : float;
  exact_s : float;
  h1_s : float;
}

type measurement = { row : row; timings : timings }

let ladder = function
  | `Smoke -> [ (50, 4); (200, 16) ]
  | `Quick -> [ (1_000, 32); (5_000, 64); (20_000, 200) ]
  | `Full -> [ (5_000, 100); (20_000, 400); (50_000, 1_000) ]

let instance ~seed ~n ~p =
  (* Same stream-derivation idiom as Workload.instance: one independent
     SplitMix64 stream per (seed, family, n, p). *)
  let tag = Hashtbl.hash (seed, "scaling-e6", n, p) in
  let rng = Rng.create tag in
  let app = App_generator.generate rng (App_generator.e6 ~n) in
  let platform = Platform_generator.web_scale rng ~p in
  Instance.make ~id:0 ~seed:tag app platform

(* Exact minimum period of the all-fastest relaxation (every processor
   at the platform's top speed): the identical-processor chains problem
   seen through W ↦ (δ/b + W/s) + δ/b. With uniform deltas that map is
   the same for every interval and non-decreasing in IEEE arithmetic,
   and Cost's work sums are the prefix differences Nicol reads, so the
   map commutes with the max over a partition and the min over
   partitions: the optimum is the largest fastest-speed cycle over
   Nicol's witness, bit for bit (DESIGN.md §11). *)
let exact_relaxed_min_period cost ~p =
  let u = Platform.fastest (Cost.platform cost) in
  let bottleneck, witness =
    Chains.Nicol.solve (Application.works (Cost.application cost)) ~p
  in
  let period =
    Array.fold_left
      (fun acc iv ->
        Float.max acc
          (Cost.cycle cost ~d:(Interval.first iv) ~e:(Interval.last iv) ~u))
      neg_infinity witness
  in
  (period, Array.length witness, bottleneck)

(* H1 under a deterministic threshold ladder: generous multiples of the
   relaxation optimum, then the always-feasible single-processor period
   (factor 0 marks the fallback in the CSV). *)
let h1_factors = [ 1.5; 2.; 4. ]

let run_h1 (inst : Instance.t) ~exact_period =
  let try_at factor period =
    match Pipeline_core.Sp_mono_p.solve inst ~period with
    | Some sol -> Some (factor, sol)
    | None -> None
  in
  let rec first = function
    | [] -> try_at 0. (Instance.single_proc_period inst)
    | f :: rest -> (
      match try_at f (exact_period *. f) with
      | Some _ as hit -> hit
      | None -> first rest)
  in
  match first h1_factors with
  | Some (factor, sol) -> (factor, sol)
  | None -> assert false (* the single-processor threshold always holds *)

let measure ?(clock = fun () -> 0.) ~seed (n, p) =
  let inst = instance ~seed ~n ~p in
  let t0 = clock () in
  let cost = Cost.get inst.app inst.platform in
  let t1 = clock () in
  let exact_period, exact_intervals, nicol_bottleneck =
    exact_relaxed_min_period cost ~p
  in
  let t2 = clock () in
  let h1_factor, sol = run_h1 inst ~exact_period in
  let t3 = clock () in
  {
    row =
      {
        n;
        p;
        nicol_bottleneck;
        exact_period;
        exact_intervals;
        h1_factor;
        h1_period = sol.Pipeline_core.Solution.period;
        h1_latency = sol.Pipeline_core.Solution.latency;
        h1_intervals = Mapping.m sol.Pipeline_core.Solution.mapping;
      };
    timings =
      { build_s = t1 -. t0; exact_s = t2 -. t1; h1_s = t3 -. t2 };
  }

let run ?clock ?(seed = 2007) sizes = List.map (measure ?clock ~seed) sizes

let header =
  [
    "n"; "p"; "nicol bottleneck"; "exact period"; "exact intervals";
    "h1 factor"; "h1 period"; "h1 latency"; "h1 intervals";
  ]

let cells (r : row) =
  [
    string_of_int r.n;
    string_of_int r.p;
    Printf.sprintf "%.6f" r.nicol_bottleneck;
    Printf.sprintf "%.6f" r.exact_period;
    string_of_int r.exact_intervals;
    Printf.sprintf "%.1f" r.h1_factor;
    Printf.sprintf "%.6f" r.h1_period;
    Printf.sprintf "%.6f" r.h1_latency;
    string_of_int r.h1_intervals;
  ]

let to_csv measurements =
  Pipeline_util.Csv.csv_of_rows ~header
    (List.map (fun m -> cells m.row) measurements)

let write ~dir measurements =
  let path = Filename.concat dir "scaling-e6.csv" in
  Pipeline_util.Csv.to_file path (to_csv measurements);
  [ path ]

(* ------------------------------------------------------------------ *)
(* The exact rung: Branch_bound on a paper-style application           *)
(* ------------------------------------------------------------------ *)

(* One rung per (n, p) of the anytime branch-and-bound — the solver the
   task-tree rewrite parallelises (DESIGN.md §14). Sizes sit past the
   subset-DP's p <= 16 ceiling, where speed symmetry plus the shared
   incumbent are what keep the search tractable. Everything in the CSV
   is deterministic at any --jobs: the wave schedule fixes the node and
   prune counts, not domain timing. *)

type bnb_row = {
  bnb_n : int;
  bnb_p : int;
  bnb_period : float;
  bnb_latency : float;
  bnb_nodes : int;
  bnb_proven : bool;
}

type bnb_measurement = { bnb_row : bnb_row; bnb_s : float }

let bnb_ladder = function
  | `Smoke -> [ (8, 40) ]
  | `Quick -> [ (12, 100) ]
  | `Full -> [ (12, 100); (14, 200) ]

let bnb_budget = function
  | `Smoke -> 50_000
  | `Quick -> 500_000
  | `Full -> 1_000_000

let bnb_instance ~seed ~n ~p =
  let tag = Hashtbl.hash (seed, "scaling-bnb", n, p) in
  let rng = Rng.create tag in
  let app = App_generator.generate rng (App_generator.e2 ~n) in
  let platform = Platform_generator.comm_homogeneous rng ~p in
  Instance.make ~id:0 ~seed:tag app platform

let bnb_measure ?(clock = fun () -> 0.) ?(budget = 1_000_000) ~seed (n, p) =
  let inst = bnb_instance ~seed ~n ~p in
  let t0 = clock () in
  let r = Pipeline_optimal.Branch_bound.min_period ~node_budget:budget inst in
  let t1 = clock () in
  {
    bnb_row =
      {
        bnb_n = n;
        bnb_p = p;
        bnb_period = r.Pipeline_optimal.Branch_bound.solution.Pipeline_core.Solution.period;
        bnb_latency = r.Pipeline_optimal.Branch_bound.solution.Pipeline_core.Solution.latency;
        bnb_nodes = r.Pipeline_optimal.Branch_bound.nodes;
        bnb_proven = r.Pipeline_optimal.Branch_bound.proven_optimal;
      };
    bnb_s = t1 -. t0;
  }

let bnb_run ?clock ?budget ?(seed = 2007) sizes =
  List.map (bnb_measure ?clock ?budget ~seed) sizes

let bnb_header = [ "n"; "p"; "period"; "latency"; "nodes"; "proven" ]

let bnb_cells (r : bnb_row) =
  [
    string_of_int r.bnb_n;
    string_of_int r.bnb_p;
    Printf.sprintf "%.6f" r.bnb_period;
    Printf.sprintf "%.6f" r.bnb_latency;
    string_of_int r.bnb_nodes;
    (if r.bnb_proven then "1" else "0");
  ]

let bnb_to_csv measurements =
  Pipeline_util.Csv.csv_of_rows ~header:bnb_header
    (List.map (fun m -> bnb_cells m.bnb_row) measurements)

let bnb_write ~dir measurements =
  let path = Filename.concat dir "scaling-bnb.csv" in
  Pipeline_util.Csv.to_file path (bnb_to_csv measurements);
  [ path ]

let bnb_render measurements =
  let header = bnb_header @ [ "bnb s" ] in
  let rows =
    List.map
      (fun m -> bnb_cells m.bnb_row @ [ Printf.sprintf "%.3f" m.bnb_s ])
      measurements
  in
  Table.render (header :: rows)

(* Human-readable table with the (non-deterministic) wall-clocks — for
   stdout and EXPERIMENTS.md, never for golden artefacts. *)
let render measurements =
  let header = header @ [ "build s"; "exact s"; "h1 s" ] in
  let rows =
    List.map
      (fun m ->
        cells m.row
        @ [
            Printf.sprintf "%.3f" m.timings.build_s;
            Printf.sprintf "%.3f" m.timings.exact_s;
            Printf.sprintf "%.3f" m.timings.h1_s;
          ])
      measurements
  in
  Table.render (header :: rows)
