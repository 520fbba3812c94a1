(* Benchmark and reproduction harness.

     dune exec bench/main.exe                 # everything (figures, Table 1,
                                              # ablations, campaigns)
     dune exec bench/main.exe -- --quick      # reduced campaign (CI-sized)
     dune exec bench/main.exe -- --figures    # only the 12 paper figures
     dune exec bench/main.exe -- --table1     # only Table 1
     dune exec bench/main.exe -- --ablation   # only the ablation studies
     dune exec bench/main.exe -- --faults     # only the fault campaign
     dune exec bench/main.exe -- --streaming  # only the streaming churn campaign
     dune exec bench/main.exe -- --scaling    # only the E6 web-scale ladder
     dune exec bench/main.exe -- --smoke      # tiny end-to-end wiring check

   For every figure and table of the paper's evaluation (§5) this
   harness regenerates the corresponding data series and prints them,
   writing gnuplot/.csv artefacts under results/. Absolute values depend
   on the random draws; the reproduced object is the shape: which
   heuristic wins where, and by roughly which factor. *)

open Pipeline_model
open Pipeline_core
module E = Pipeline_experiments
module Ureg = Pipeline_registry

(* ------------------------------------------------------------------ *)
(* Options                                                             *)
(* ------------------------------------------------------------------ *)

type options = {
  mutable figures : bool;
  mutable table1 : bool;
  mutable ablation : bool;
  mutable faults : bool;
  mutable streaming : bool;
  mutable scaling : bool;
  mutable smoke : bool;
  mutable quick : bool;
  mutable pairs : int;
  mutable points : int;
  mutable seed : int;
  mutable out : string;
  mutable jobs : int;
  mutable metrics : bool;
  mutable trace : string option;
  mutable perf_summary : bool;
}

let options =
  {
    figures = true;
    table1 = true;
    ablation = true;
    faults = true;
    streaming = true;
    scaling = true;
    smoke = false;
    quick = false;
    pairs = 50;
    points = 15;
    seed = 2007;
    out = "results";
    jobs = Pipeline_util.Pool.recommended_jobs ();
    metrics = false;
    trace = None;
    perf_summary = false;
  }

let select which =
  (* The first explicit section flag turns the others off. *)
  if
    options.figures && options.table1 && options.ablation && options.faults
    && options.streaming && options.scaling
  then begin
    options.figures <- false;
    options.table1 <- false;
    options.ablation <- false;
    options.faults <- false;
    options.streaming <- false;
    options.scaling <- false
  end;
  which ()

(* Smoke mode shrinks every hardcoded batch so the whole harness stays
   runtest-sized. *)
let scale pairs = if options.smoke then min pairs 3 else pairs
let sim_datasets datasets = if options.smoke then 40 else datasets

let parse_args () =
  let spec =
    [
      ("--figures", Arg.Unit (fun () -> select (fun () -> options.figures <- true)),
       " only regenerate the paper figures");
      ("--table1", Arg.Unit (fun () -> select (fun () -> options.table1 <- true)),
       " only regenerate Table 1");
      ("--ablation", Arg.Unit (fun () -> select (fun () -> options.ablation <- true)),
       " only run the ablation studies");
      ("--streaming",
       Arg.Unit (fun () -> select (fun () -> options.streaming <- true)),
       " only run the streaming churn campaign");
      ("--faults", Arg.Unit (fun () -> select (fun () -> options.faults <- true)),
       " only run the fault-injection campaign");
      ("--scaling",
       Arg.Unit (fun () -> select (fun () -> options.scaling <- true)),
       " only run the E6 web-scale scaling ladder");
      ("--smoke",
       Arg.Unit
         (fun () ->
           options.smoke <- true;
           options.pairs <- 2;
           options.points <- 3),
       " end-to-end wiring check (tiny batches)");
      ("--quick",
       Arg.Unit
         (fun () ->
           options.quick <- true;
           options.pairs <- 10;
           options.points <- 8),
       " reduced campaign (10 pairs, 8 sweep points, mid-sized scaling \
        ladder)");
      ("--pairs", Arg.Int (fun v -> options.pairs <- v), "N app/platform pairs per point");
      ("--points", Arg.Int (fun v -> options.points <- v), "N sweep points");
      ("--seed", Arg.Int (fun v -> options.seed <- v), "N campaign seed");
      ("--out", Arg.String (fun v -> options.out <- v), "DIR output directory");
      ("--jobs",
       (* Same validation, cap and help text as the CLI: both flags are
          built on [Pool.parse_jobs]. *)
       Arg.String
         (fun s ->
           match Pipeline_util.Pool.parse_jobs s with
           | Ok n -> options.jobs <- n
           | Error msg -> raise (Arg.Bad msg)),
       "N " ^ Pipeline_util.Pool.jobs_doc ~default:options.jobs);
      ("--metrics", Arg.Unit (fun () -> options.metrics <- true),
       " collect deterministic counters (branches, DES events, ...) and \
        print a summary table; also writes <out>/metrics.csv. Counter \
        values are bit-identical at any --jobs");
      ("--trace", Arg.String (fun v -> options.trace <- Some v),
       "FILE record timed spans and write them to FILE as Chrome \
        trace_event JSON (open in chrome://tracing or Perfetto)");
      ("--perf-summary", Arg.Unit (fun () -> options.perf_summary <- true),
       " write <out>/perf-summary.json (the Obs counters, plus the \
        exact solvers timed at 1/4/8 domains; combine with --metrics for \
        non-zero counters). Not part of the deterministic artefact set: \
        wall-clocks vary by machine");
    ]
  in
  Arg.parse (Arg.align spec)
    (fun a -> raise (Arg.Bad (Printf.sprintf "unexpected argument %s" a)))
    "dune exec bench/main.exe -- [options]\n\n\
     Exit status: 0 on success; 1 when the --table1 reproduction gate \
     finds a cell\noutside the documented tolerance (seed 2007, non-smoke \
     runs only); 2 on\nmalformed command-line input.\n\n\
     Options:";
  Pipeline_util.Pool.set_jobs options.jobs;
  Obs.set_metrics options.metrics;
  if options.trace <> None then Obs.set_tracing true

let section title =
  Printf.printf "\n%s\n%s\n%s\n\n" (String.make 74 '=') title (String.make 74 '=')

(* Wall-clocks of the exact-solver stack at 1/4/8 domains, for the
   --perf-summary "exact_jobs" block: the same bit-identical work timed
   at three pool widths. Runs after the counters snapshot AND after
   metrics.csv is written — the re-solves triple the solver counters,
   which must never leak into the gated deterministic sets. The compare
   script gates the j8/j1 speedup only when the machine reports >= 8
   cores (scripts/compare_perf_baseline.py). *)
let exact_jobs_widths = [ 1; 4; 8 ]

let run_exact_jobs () =
  let prev = Pipeline_util.Pool.jobs () in
  let time f =
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
  let ladder name f =
    ( name,
      List.map
        (fun jobs ->
          Pipeline_util.Pool.set_jobs jobs;
          (jobs, time f))
        exact_jobs_widths )
  in
  Fun.protect
    ~finally:(fun () -> Pipeline_util.Pool.set_jobs prev)
    (fun () ->
      (* One E6-era exact rung (the quick scaling-bnb size)... *)
      let bnb =
        ladder "bnb-12x100" (fun () ->
            ignore
              (E.Scaling.bnb_run ~budget:500_000 ~seed:options.seed [ (12, 100) ]))
      in
      (* ...and the ablation-5 het validation (exhaustive oracle inside). *)
      let het =
        ladder "het-validate" (fun () ->
            ignore
              (E.Het_campaign.validate ~runs:20 ~seed:options.seed
                 ~family:(List.hd E.Het_campaign.families) ()))
      in
      [ bnb; het ])

(* Machine-readable perf snapshot for CI: every Obs counter (probe
   counts included) from the seeded sections, which the compare script
   gates exactly, plus the exact-solver jobs ladder, whose wall-clocks
   gate only the j8/j1 speedup. Deliberately separate from the
   deterministic artefact set — the wall-clocks vary run to run. *)
let write_perf_summary ~counters ~exact_jobs path =
  let b = Buffer.create 1024 in
  Printf.bprintf b
    "{\n\
    \  \"seed\": %d,\n\
    \  \"jobs\": %d,\n\
    \  \"cores\": %d,\n\
    \  \"pairs\": %d,\n\
    \  \"counters\": {"
    options.seed
    (Pipeline_util.Pool.jobs ())
    (Domain.recommended_domain_count ())
    options.pairs;
  List.iteri
    (fun i (name, value) ->
      Printf.bprintf b "%s\n    \"%s\": %d" (if i = 0 then "" else ",") name value)
    counters;
  Buffer.add_string b "\n  },\n  \"exact_jobs\": {";
  List.iteri
    (fun i (name, rows) ->
      Printf.bprintf b "%s\n    \"%s\": {" (if i = 0 then "" else ",") name;
      List.iteri
        (fun k (jobs, seconds) ->
          Printf.bprintf b "%s\n      \"jobs_%d_s\": %.4f"
            (if k = 0 then "" else ",")
            jobs seconds)
        rows;
      Buffer.add_string b "\n    }")
    exact_jobs;
  Buffer.add_string b "\n  }\n}\n";
  Pipeline_util.Csv.to_file path (Buffer.contents b)

(* ------------------------------------------------------------------ *)
(* Figures 2-7                                                         *)
(* ------------------------------------------------------------------ *)

let run_figures () =
  section
    (Printf.sprintf
       "PAPER FIGURES 2-7 (latency vs period; %d pairs, %d sweep points, seed %d)"
       options.pairs options.points options.seed);
  List.iter
    (fun (label, _) ->
      match
        E.Campaign.run_paper_figure ~pairs:options.pairs
          ~sweep_points:options.points ~seed:options.seed label
      with
      | None -> ()
      | Some fig ->
        print_endline (E.Report.figure_to_ascii fig);
        print_newline ();
        let paths = E.Report.write_figure ~dir:options.out fig in
        List.iter (Printf.printf "  wrote %s\n") paths;
        print_newline ())
    (E.Campaign.paper_figures ());
  (* Extension figure E5: the same campaign on fully heterogeneous
     platforms (paper future work). *)
  let e5 =
    E.Het_campaign.figure ~pairs:(min options.pairs 20)
      ~sweep_points:options.points ~seed:options.seed ~n:20 10
  in
  print_endline (E.Report.figure_to_ascii e5);
  let paths = E.Report.write_figure ~dir:options.out e5 in
  List.iter (Printf.printf "  wrote %s\n") paths;
  print_newline ();
  (* Exact het thresholds per bandwidth-matrix family (DESIGN.md §13).
     Every probe lands on the experiments.het.* counters, so the
     historical counter rows in metrics.csv are untouched. *)
  let tt =
    E.Het_campaign.threshold_table
      ~pairs:(scale (min options.pairs 10))
      ~seed:options.seed ~n:12 ~p:6 ()
  in
  print_endline (E.Het_campaign.render_threshold_table tt);
  let csv_rows =
    List.map
      (fun (name, means) -> name :: List.map (Printf.sprintf "%.17g") means)
      tt.E.Het_campaign.rows
  in
  let het_csv = Filename.concat options.out "het-thresholds.csv" in
  Pipeline_util.Csv.to_file het_csv
    (Pipeline_util.Csv.csv_of_rows
       ~header:(E.Het_campaign.threshold_table_header tt)
       csv_rows);
  Printf.printf "  wrote %s\n" het_csv;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Table 1                                                             *)
(* ------------------------------------------------------------------ *)

(* The paper's Table 1 (failure thresholds, p = 10), for side-by-side
   comparison with the reproduced values. *)
let paper_table1 = function
  | E.Config.E1 ->
    [ ("H1", [ 3.0; 3.3; 5.0; 5.0 ]);
      ("H2", [ 3.0; 4.7; 9.0; 18.0 ]);
      ("H3", [ 3.0; 4.0; 5.0; 5.0 ]);
      ("H4", [ 3.3; 3.3; 6.0; 10.0 ]);
      ("H5", [ 4.5; 6.0; 13.0; 25.0 ]);
      ("H6", [ 4.5; 6.0; 13.0; 25.0 ]) ]
  | E.Config.E2 ->
    [ ("H1", [ 9.7; 10.0; 11.0; 11.0 ]);
      ("H2", [ 10.3; 10.0; 12.0; 19.0 ]);
      ("H3", [ 10.0; 10.0; 11.0; 11.0 ]);
      ("H4", [ 11.3; 11.0; 13.0; 15.0 ]);
      ("H5", [ 11.7; 15.0; 22.0; 32.0 ]);
      ("H6", [ 11.7; 15.0; 22.0; 32.0 ]) ]
  | E.Config.E3 ->
    [ ("H1", [ 50.0; 70.0; 100.0; 250.0 ]);
      ("H2", [ 50.0; 140.0; 450.0; 950.0 ]);
      ("H3", [ 50.0; 90.0; 250.0; 400.0 ]);
      ("H4", [ 100.0; 140.0; 300.0; 650.0 ]);
      ("H5", [ 140.0; 270.0; 500.0; 1000.0 ]);
      ("H6", [ 140.0; 270.0; 500.0; 1000.0 ]) ]
  | E.Config.E4 ->
    [ ("H1", [ 2.2; 2.3; 2.3; 2.3 ]);
      ("H2", [ 2.4; 2.7; 3.7; 7.0 ]);
      ("H3", [ 2.4; 2.7; 3.0; 4.0 ]);
      ("H4", [ 2.8; 2.7; 3.0; 4.0 ]);
      ("H5", [ 3.0; 4.0; 7.0; 11.0 ]);
      ("H6", [ 3.0; 4.0; 7.0; 11.0 ]) ]

(* Reproduction gate (see EXPERIMENTS.md "Table 1"): every measured
   threshold must lie within a factor 4 of the paper's value, loosened
   to a factor 8 for the H2/H3 cells at n >= 20 — the documented "known
   deviation" of the 3-exploration heuristics. The gate turns --table1
   into a CI check: out-of-tolerance cells make the bench exit
   non-zero. Skipped off the documented campaign (non-default seed) and
   in smoke mode, where 2-pair batches are pure noise. *)
let table1_failures = ref []

let table1_tolerance ~heuristic ~n =
  if (heuristic = "H2" || heuristic = "H3") && n >= 20 then 8. else 4.

let check_table1 experiment (table : E.Failure.table) reference =
  if (not options.smoke) && options.seed = 2007 then
    List.iter
      (fun (name, measured) ->
        let paper = List.assoc name reference in
        List.iter2
          (fun n (m, p) ->
            let tol = table1_tolerance ~heuristic:name ~n in
            if m > p *. tol || m < p /. tol then
              table1_failures :=
                Printf.sprintf
                  "%s %s n=%d: measured %.1f vs paper %.1f (tolerance x%g)"
                  (E.Config.experiment_name experiment)
                  name n m p tol
                :: !table1_failures)
          table.E.Failure.ns
          (List.combine measured paper))
      table.E.Failure.rows

let run_table1 () =
  section
    (Printf.sprintf
       "TABLE 1: failure thresholds, p = 10 (measured vs paper; %d pairs)"
       options.pairs);
  let ns = [ 5; 10; 20; 40 ] in
  List.iter
    (fun experiment ->
      let table =
        E.Failure.table ~pairs:options.pairs ~seed:options.seed experiment ~p:10
          ~ns
      in
      let reference = paper_table1 experiment in
      check_table1 experiment table reference;
      Printf.printf "%s (%s)\n"
        (E.Config.experiment_name experiment)
        (E.Config.experiment_title experiment);
      let header =
        "Heur." :: List.map (fun n -> Printf.sprintf "n=%d" n) ns
      in
      let rows =
        List.map
          (fun (name, measured) ->
            let paper = List.assoc name reference in
            name
            :: List.map2
                 (fun m p -> Printf.sprintf "%.1f (%.1f)" m p)
                 measured paper)
          table.E.Failure.rows
      in
      print_endline (Pipeline_util.Table.render (header :: rows));
      ignore (E.Report.write_table ~dir:options.out table);
      print_newline ())
    E.Config.all_experiments;
  print_endline "  cell format: measured (paper)";
  match !table1_failures with
  | [] ->
    if (not options.smoke) && options.seed = 2007 then
      print_endline "  reproduction gate: all cells within tolerance"
  | failures ->
    print_endline "  REPRODUCTION GATE FAILED:";
    List.iter (Printf.printf "    %s\n") (List.rev failures)

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let ablation_fallback () =
  Printf.printf
    "Ablation 1: pure 3-exploration (paper) vs 2-way-split fallback extension\n";
  Printf.printf
    "(failure thresholds on E1, p = 10: lower = more robust; %d pairs)\n\n"
    (scale (min options.pairs 20));
  let pairs = scale (min options.pairs 20) in
  let ns = [ 10; 20; 40 ] in
  Printf.printf "%-22s" "heuristic";
  List.iter (fun n -> Printf.printf "%10s" (Printf.sprintf "n=%d" n)) ns;
  print_newline ();
  List.iter
    (fun id ->
      match Ureg.find id with
      | None -> ()
      | Some info ->
        Printf.printf "%-22s" info.Ureg.paper_name;
        List.iter
          (fun n ->
            let setup =
              E.Config.default_setup ~pairs ~seed:options.seed E.Config.E1 ~n
                ~p:10
            in
            let batch = E.Workload.instances setup in
            Printf.printf "%10.1f" (E.Failure.average_threshold info batch))
          ns;
        print_newline ())
    [ "h2-3explo-mono"; "h2x-3explo-mono-fb"; "h3-3explo-bi"; "h3x-3explo-bi-fb" ]

let ablation_overlap () =
  Printf.printf
    "\nAblation 2: one-port/no-overlap (paper model) vs multi-port overlap\n";
  Printf.printf "(simulated steady-state period on mapped E2 instances)\n\n";
  (* Instance generation consumes the shared RNG stream and stays
     sequential; the simulations are pure per-instance work and fan out
     across the pool, reassembled in draw order. *)
  let rng = Pipeline_util.Rng.create options.seed in
  let insts =
    Array.init (scale 30) (fun i ->
        let n = 5 + Pipeline_util.Rng.int rng 30 in
        let app = App_generator.generate rng (App_generator.e2 ~n) in
        let platform = Platform_generator.comm_homogeneous rng ~p:10 in
        Instance.make ~id:(i + 1) app platform)
  in
  let evaluate inst =
    let threshold = Instance.single_proc_period inst *. 0.6 in
    match Sp_mono_p.solve inst ~period:threshold with
    | None -> None
    | Some sol ->
      let run mode =
        Pipeline_sim.Trace.steady_period
          (Pipeline_sim.Runner.run ~mode inst sol.Solution.mapping ~datasets:(sim_datasets 150))
      in
      let no = run Pipeline_sim.Runner.One_port_no_overlap in
      let ov = run Pipeline_sim.Runner.Multi_port_overlap in
      if no > 0. then Some (ov /. no) else None
  in
  let ratios =
    ref
      (Array.fold_left
         (fun acc r -> match r with None -> acc | Some v -> v :: acc)
         []
         (Pipeline_util.Pool.map evaluate insts))
  in
  match !ratios with
  | [] -> Printf.printf "  (no mapped instance)\n"
  | rs ->
    Printf.printf
      "  overlap period / one-port period: mean %.3f, min %.3f, max %.3f (%d runs)\n"
      (Pipeline_util.Stats.mean rs)
      (fst (Pipeline_util.Stats.min_max rs))
      (snd (Pipeline_util.Stats.min_max rs))
      (List.length rs);
    Printf.printf
      "  (< 1 everywhere: the paper's one-port/no-overlap cost model is\n\
      \   conservative; equation (1) upper-bounds an overlapped execution.)\n"

let ablation_baselines () =
  Printf.printf
    "\nAblation 3: heuristics vs baselines (E2, n = 40, p = 10, 20 instances)\n";
  Printf.printf
    "(average period after unconstrained splitting vs comm-oblivious and random)\n\n";
  let setup =
    E.Config.default_setup ~pairs:(scale 20) ~seed:options.seed E.Config.E2 ~n:40 ~p:10
  in
  let batch = E.Workload.instances setup in
  let avg f =
    (* Per-pair fan-out; the filter keeps batch order for the mean. *)
    let values =
      List.filter_map Fun.id
        (Pipeline_util.Pool.map_list f batch)
    in
    Pipeline_util.Stats.mean values
  in
  let h5 =
    avg (fun inst ->
        Option.map
          (fun (s : Solution.t) -> s.Solution.period)
          (Sp_mono_l.solve inst ~latency:infinity))
  in
  let balanced =
    avg (fun inst -> Some (Baseline.balanced_chains inst).Solution.period)
  in
  let random =
    avg (fun inst ->
        let rng = Pipeline_util.Rng.create (inst.Instance.seed + 1) in
        Some (Baseline.random rng inst).Solution.period)
  in
  let single = avg (fun inst -> Some (Instance.single_proc_period inst)) in
  Printf.printf "  %-34s %10.2f\n" "Sp mono L (unbounded budget)" h5;
  Printf.printf "  %-34s %10.2f\n" "balanced chains (comm-oblivious)" balanced;
  Printf.printf "  %-34s %10.2f\n" "random mapping" random;
  Printf.printf "  %-34s %10.2f\n" "single fastest processor" single

let ablation_deal () =
  Printf.printf
    "\nAblation 4: splitting vs deal (one dominant stage; E3-flavoured, p = 8)\n";
  Printf.printf
    "(min period with unbounded latency budget; the deal replicates the hot stage)\n\n";
  let rng = Pipeline_util.Rng.create (options.seed + 13) in
  (* Shared-stream draws first, pooled evaluation second (see ablation 2). *)
  let insts =
    Array.init (scale 20) (fun i ->
        let n = 5 + Pipeline_util.Rng.int rng 10 in
        let works =
          Array.init n (fun _ -> float_of_int (Pipeline_util.Rng.int_in rng 5 20))
        in
        (* One hot stage dominating the rest. *)
        works.(Pipeline_util.Rng.int rng n) <-
          float_of_int (Pipeline_util.Rng.int_in rng 300 600);
        let deltas =
          Array.init (n + 1) (fun _ -> float_of_int (Pipeline_util.Rng.int_in rng 1 20))
        in
        let app = Application.make ~deltas works in
        let platform = Platform_generator.comm_homogeneous rng ~p:8 in
        Instance.make ~id:(i + 1) app platform)
  in
  let outcomes =
    Pipeline_util.Pool.map
      (fun inst ->
        ( Option.map
            (fun (s : Solution.t) -> s.Solution.period)
            (Sp_mono_l.solve inst ~latency:infinity),
          Option.map
            (fun s -> s.Pipeline_deal.Deal_heuristic.period)
            (Pipeline_deal.Deal_heuristic.minimise_period_under_latency inst
               ~latency:infinity) ))
      insts
  in
  let split_periods = ref [] and deal_periods = ref [] in
  Array.iter
    (fun (split, deal) ->
      Option.iter (fun v -> split_periods := v :: !split_periods) split;
      Option.iter (fun v -> deal_periods := v :: !deal_periods) deal)
    outcomes;
  Printf.printf "  %-34s %10.2f\n" "splitting only (Sp mono L)"
    (Pipeline_util.Stats.mean !split_periods);
  Printf.printf "  %-34s %10.2f\n" "splitting + round-robin deal"
    (Pipeline_util.Stats.mean !deal_periods);
  Printf.printf
    "  (the deal escapes the single-stage bottleneck the paper's heuristics\n\
    \   are stuck on; see lib/deal and DESIGN.md.)\n"

let ablation_het () =
  Printf.printf
    "\nAblation 5: fully heterogeneous extension (future work of the paper)\n";
  Printf.printf
    "(min period, unbounded budget: het-aware splitting vs exhaustive optimum,\n\
    \ 20 random fully-het instances, n <= 8, p <= 4)\n\n";
  let rng = Pipeline_util.Rng.create (options.seed + 17) in
  (* Shared-stream draws first, pooled evaluation second (see ablation 2). *)
  let insts =
    Array.init (scale 20) (fun i ->
        let n = 2 + Pipeline_util.Rng.int rng 7 in
        let p = 2 + Pipeline_util.Rng.int rng 3 in
        let works =
          Array.init n (fun _ -> float_of_int (Pipeline_util.Rng.int_in rng 1 20))
        in
        let deltas =
          Array.init (n + 1) (fun _ -> float_of_int (Pipeline_util.Rng.int_in rng 1 30))
        in
        let app = Application.make ~deltas works in
        let platform = Platform_generator.fully_heterogeneous rng ~p in
        Instance.make ~id:(i + 1) app platform)
  in
  let evaluate inst =
    let opt = (Pipeline_optimal.Exhaustive.min_period inst).Solution.period in
    Option.map
      (fun (sol : Solution.t) -> sol.Solution.period /. opt)
      (Pipeline_het.Het_heuristics.minimise_period_under_latency inst
         ~latency:infinity)
  in
  (* Sequential over instances: the exhaustive solve inside [evaluate]
     fans its enumeration tree out over the domain pool, so the
     parallelism now lives per-solve (an outer Pool.map would demote it
     to sequential via the nested-call guard). *)
  let ratios =
    ref
      (Array.fold_left
         (fun acc r -> match r with None -> acc | Some v -> v :: acc)
         []
         (Array.map evaluate insts))
  in
  Printf.printf
    "  het heuristic period / optimal period: mean %.3f, max %.3f (%d runs)\n"
    (Pipeline_util.Stats.mean !ratios)
    (snd (Pipeline_util.Stats.min_max !ratios))
    (List.length !ratios);
  (* Per bandwidth-matrix family, against the same exhaustive oracle
     (n <= 8, p <= 6; Het_campaign.validate). *)
  Printf.printf "  per family (Het_campaign.validate, n <= 8, p <= 6):\n";
  List.iter
    (fun family ->
      let v =
        E.Het_campaign.validate ~runs:(scale 20) ~seed:options.seed ~family ()
      in
      Printf.printf "    %-12s mean %.3f, max %.3f (%d runs)\n"
        (E.Het_campaign.family_name family)
        v.E.Het_campaign.mean_ratio v.E.Het_campaign.max_ratio
        v.E.Het_campaign.runs)
    E.Het_campaign.families

let ablation_robustness () =
  Printf.printf
    "\nAblation 6: robustness to computation-time jitter (E2, n = 20, p = 10)\n";
  Printf.printf
    "(simulated period / analytic period under multiplicative noise;\n\
    \ mappings produced by each heuristic at 0.6 x single-machine period)\n\n";
  let setup =
    E.Config.default_setup ~pairs:(scale 10) ~seed:options.seed E.Config.E2 ~n:20 ~p:10
  in
  let batch = E.Workload.instances setup in
  let levels = [ 0.; 0.1; 0.3; 0.5 ] in
  Printf.printf "%-20s" "heuristic";
  List.iter (fun l -> Printf.printf "%10s" (Printf.sprintf "eps=%.1f" l)) levels;
  print_newline ();
  List.iter
    (fun (info : Ureg.info) ->
      if info.Ureg.kind = Ureg.Period_fixed then begin
        let series =
          E.Robustness.series ~datasets:(sim_datasets 200) ~noise_levels:levels info batch
        in
        Printf.printf "%-20s" info.Ureg.paper_name;
        List.iter
          (fun (_, y) -> Printf.printf "%10.3f" y)
          (Pipeline_util.Series.points series);
        print_newline ()
      end)
    Ureg.paper

let ablation_polish () =
  Printf.printf
    "\nAblation 7: local-search polish of the heuristics (E2, n = 12, p = 8)\n";
  Printf.printf
    "(average latency at a 0.5 x single-machine period threshold;\n\
    \ polished = heuristic + steepest descent under the period constraint)\n\n";
  let setup =
    E.Config.default_setup ~pairs:(scale 15) ~seed:options.seed E.Config.E2 ~n:12 ~p:8
  in
  let batch = E.Workload.instances setup in
  Printf.printf "%-20s %12s %12s %12s\n" "heuristic" "raw" "polished" "exact";
  List.iter
    (fun (info : Ureg.info) ->
      if info.Ureg.kind = Ureg.Period_fixed then begin
        let outcomes =
          Pipeline_util.Pool.map
            (fun inst ->
              let threshold = Instance.single_proc_period inst *. 0.5 in
              match
                Option.bind (info.Ureg.solve inst ~threshold)
                  Ureg.solution_of_outcome
              with
              | None -> None
              | Some sol ->
                let better =
                  Pipeline_optimal.Local_search.improve
                    ~objective:Pipeline_optimal.Local_search.Latency_then_period
                    ~feasible:(fun s -> Solution.respects_period s threshold)
                    inst sol
                in
                let exact =
                  Pipeline_optimal.Bicriteria.min_latency_under_period inst
                    ~period:threshold
                in
                Some
                  ( sol.Solution.latency,
                    better.Solution.latency,
                    Option.map (fun (e : Solution.t) -> e.Solution.latency) exact
                  ))
            (Array.of_list batch)
        in
        let raws = ref [] and polished = ref [] and exacts = ref [] in
        Array.iter
          (function
            | None -> ()
            | Some (raw, p, exact) ->
              raws := raw :: !raws;
              polished := p :: !polished;
              Option.iter (fun e -> exacts := e :: !exacts) exact)
          outcomes;
        match !raws with
        | [] -> ()
        | _ ->
          Printf.printf "%-20s %12.2f %12.2f %12.2f\n" info.Ureg.paper_name
            (Pipeline_util.Stats.mean !raws)
            (Pipeline_util.Stats.mean !polished)
            (Pipeline_util.Stats.mean !exacts)
      end)
    Ureg.paper

let ablation_branch_bound () =
  Printf.printf
    "\nAblation 8: how suboptimal are the heuristics on large platforms?\n";
  Printf.printf
    "(E2, n = 12, p = 100: branch-and-bound with speed-symmetry pruning vs\n\
    \ unconstrained splitting; 10 instances)\n\n";
  let setup =
    E.Config.default_setup ~pairs:(scale 10) ~seed:options.seed E.Config.E2 ~n:12 ~p:100
  in
  let batch = E.Workload.instances setup in
  let outcomes =
    Pipeline_util.Pool.map
      (fun inst ->
        match Sp_mono_l.solve inst ~latency:infinity with
        | None -> None
        | Some h ->
          let result =
            Pipeline_optimal.Branch_bound.min_period
              ~node_budget:(if options.smoke then 20_000 else 500_000)
              ~initial:h inst
          in
          Some
            ( h.Solution.period
              /. result.Pipeline_optimal.Branch_bound.solution.Solution.period,
              result.Pipeline_optimal.Branch_bound.proven_optimal ))
      (Array.of_list batch)
  in
  let gaps = ref [] and proven = ref 0 in
  Array.iter
    (function
      | None -> ()
      | Some (gap, optimal) ->
        if optimal then incr proven;
        gaps := gap :: !gaps)
    outcomes;
  Printf.printf
    "  heuristic period / B&B period: mean %.3f, max %.3f (%d/%d proven optimal)\n"
    (Pipeline_util.Stats.mean !gaps)
    (snd (Pipeline_util.Stats.min_max !gaps))
    !proven (List.length !gaps)

let run_ablation () =
  section "ABLATIONS AND EXTENSIONS (design choices quantified)";
  ablation_fallback ();
  ablation_overlap ();
  ablation_baselines ();
  ablation_deal ();
  ablation_het ();
  ablation_robustness ();
  ablation_polish ();
  ablation_branch_bound ()

(* ------------------------------------------------------------------ *)
(* Fault-injection campaign                                            *)
(* ------------------------------------------------------------------ *)

let run_faults () =
  section
    (Printf.sprintf
       "FAULT CAMPAIGN: crash injection, recovery, online remapping (seed %d)"
       options.seed);
  Printf.printf
    "(H1 mappings at 0.6 x single-processor period; permanent crashes vs\n\
    \ 10-period outages with 3 retries; remap asked to meet 1.2 x the\n\
    \ original threshold on the survivors)\n\n";
  let datasets = sim_datasets 150 in
  List.iter
    (fun (experiment, n, p) ->
      let setup =
        E.Config.default_setup
          ~pairs:(scale (min options.pairs 15))
          ~seed:options.seed experiment ~n ~p
      in
      let campaign = E.Fault_campaign.run ~datasets setup in
      print_endline (E.Fault_campaign.render campaign);
      let paths = E.Fault_campaign.write ~dir:options.out campaign in
      List.iter (Printf.printf "  wrote %s\n") paths;
      print_newline ())
    [ (E.Config.E1, 10, 10); (E.Config.E2, 10, 10); (E.Config.E2, 20, 10) ]

(* ------------------------------------------------------------------ *)
(* Streaming churn campaign                                            *)
(* ------------------------------------------------------------------ *)

let run_streaming () =
  section
    (Printf.sprintf
       "STREAMING CAMPAIGN: trace-driven churn, warm vs cold re-solving (seed %d)"
       options.seed);
  Printf.printf
    "(H1 mappings at 0.6 x single-processor period; bursty / diurnal /\n\
    \ heavy-tailed arrivals at the threshold rate; two crash/recover\n\
    \ cycles plus one slowdown per run; warm = incremental resolver,\n\
    \ cold = full re-solve oracle)\n\n";
  let datasets = sim_datasets 120 in
  List.iter
    (fun (experiment, n, p) ->
      let setup =
        E.Config.default_setup
          ~pairs:(scale (min options.pairs 12))
          ~seed:options.seed experiment ~n ~p
      in
      let campaign = E.Streaming.run ~datasets setup in
      print_endline (E.Streaming.render campaign);
      let paths = E.Streaming.write ~dir:options.out campaign in
      List.iter (Printf.printf "  wrote %s\n") paths;
      print_newline ())
    [ (E.Config.E1, 10, 10); (E.Config.E2, 20, 10) ]

(* ------------------------------------------------------------------ *)
(* E6 web-scale scaling ladder                                         *)
(* ------------------------------------------------------------------ *)

let run_scaling () =
  section
    (Printf.sprintf
       "SCALING: E6 web-scale ladder — Nicol / exact lazy search / H1 (seed %d)"
       options.seed);
  Printf.printf
    "(one deterministic instance per size; exact = min period of the\n\
    \ all-fastest relaxation via the lazy candidate lattice; columns with\n\
    \ wall-clocks are machine-dependent, the CSV keeps only the\n\
    \ deterministic ones)\n\n";
  let mode =
    if options.smoke then `Smoke else if options.quick then `Quick else `Full
  in
  let measurements =
    E.Scaling.run ~clock:Unix.gettimeofday ~seed:options.seed
      (E.Scaling.ladder mode)
  in
  print_endline (E.Scaling.render measurements);
  let paths = E.Scaling.write ~dir:options.out measurements in
  List.iter (Printf.printf "  wrote %s\n") paths;
  print_newline ();
  Printf.printf
    "Exact rung: Branch_bound (task-tree + shared incumbent, DESIGN.md §14)\n";
  Printf.printf
    "(E2 application, comm-homogeneous platform, node budget %d;\n\
    \ period/nodes/proven are --jobs-independent, only `bnb s` is wall-clock)\n\n"
    (E.Scaling.bnb_budget mode);
  let bnb =
    E.Scaling.bnb_run ~clock:Unix.gettimeofday
      ~budget:(E.Scaling.bnb_budget mode) ~seed:options.seed
      (E.Scaling.bnb_ladder mode)
  in
  print_endline (E.Scaling.bnb_render bnb);
  let paths = E.Scaling.bnb_write ~dir:options.out bnb in
  List.iter (Printf.printf "  wrote %s\n") paths;
  print_newline ()

(* ------------------------------------------------------------------ *)

let () =
  parse_args ();
  let started = Unix.gettimeofday () in
  Printf.printf
    "Multi-criteria scheduling of pipeline workflows (Benoit et al., 2007)\n";
  Printf.printf "Reproduction harness. Output directory: %s (jobs: %d)\n"
    options.out
    (Pipeline_util.Pool.jobs ());
  if options.figures then run_figures ();
  if options.table1 then run_table1 ();
  if options.ablation then run_ablation ();
  if options.faults then run_faults ();
  if options.streaming then run_streaming ();
  if options.scaling then run_scaling ();
  if options.metrics then begin
    section "OBSERVABILITY COUNTERS (deterministic: identical at any --jobs)";
    print_string (Obs.summary_table ());
    let path = Filename.concat options.out "metrics.csv" in
    Pipeline_util.Csv.to_file path (Obs.metrics_csv ());
    Printf.printf "\n  wrote %s\n" path
  end;
  Option.iter
    (fun path ->
      Obs.write_trace path;
      Printf.printf "\nwrote Chrome trace: %s\n" path)
    options.trace;
  print_newline ();
  let wall = Unix.gettimeofday () -. started in
  if options.perf_summary then begin
    (* Counters first: the ladder re-solves the exact stack at three
       pool widths, which would otherwise inflate the gated
       deterministic counters. *)
    let counters = Obs.metrics () in
    let exact_jobs = run_exact_jobs () in
    Printf.printf "exact-solver jobs ladder (same bit-identical work per width):\n";
    List.iter
      (fun (name, rows) ->
        Printf.printf "  %-14s" name;
        List.iter
          (fun (jobs, seconds) -> Printf.printf "  j%d %.3fs" jobs seconds)
          rows;
        (match (List.assoc_opt 1 rows, List.assoc_opt 8 rows) with
        | Some t1, Some t8 when t8 > 0. ->
          Printf.printf "  (j8 speedup %.2fx)" (t1 /. t8)
        | _ -> ());
        print_newline ())
      exact_jobs;
    let path = Filename.concat options.out "perf-summary.json" in
    write_perf_summary ~counters ~exact_jobs path;
    Printf.printf "wrote %s\n" path
  end;
  Printf.printf "wall-clock: %.2f s (jobs %d)\n" wall
    (Pipeline_util.Pool.jobs ());
  if !table1_failures <> [] then begin
    print_endline "FAILED: Table 1 outside the documented tolerance (see above).";
    exit 1
  end;
  print_endline "done."
