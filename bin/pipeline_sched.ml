(* pipeline-sched: command-line driver for the bi-criteria pipeline
   mapping library.

     pipeline-sched solve      --works 4,8,2,6 --deltas 10,20,30,20,10 \
                               --speeds 2,4,1 --period 9 --exact
     pipeline-sched solve      --file app.pw --latency 30
     pipeline-sched solve      --family e6 --stages 50000 --procs 1000 \
                               --period 260 --heuristic h1-sp-mono-p
     pipeline-sched solve      --file app.pw --period 9 --reliability 0.05 \
                               --fail-prob 0.1
     pipeline-sched simulate   --file app.pw --crash 40:1:80 --retries 2 \
                               --backoff 5
     pipeline-sched one-to-one --file app.pw --pareto
     pipeline-sched deal       --file app.pw --period 5
     pipeline-sched scalarised --file app.pw --alpha 0.3
     pipeline-sched figure     "Figure 2(a)" --out results
     pipeline-sched table1     --experiment E1 --procs 10
     pipeline-sched campaign   --out results
     pipeline-sched validate   --trials 200
     pipeline-sched pareto     --file app.pw                            *)

open Cmdliner
open Pipeline_model
open Pipeline_core
module Ureg = Pipeline_registry

(* ------------------------------------------------------------------ *)
(* Shared argument parsing                                             *)
(* ------------------------------------------------------------------ *)

let floats_conv =
  let parse s =
    try Ok (Array.of_list (List.map float_of_string (String.split_on_char ',' s)))
    with _ -> Error (`Msg (Printf.sprintf "not a comma-separated float list: %s" s))
  in
  let print fmt a =
    Format.pp_print_string fmt
      (String.concat "," (Array.to_list (Array.map string_of_float a)))
  in
  Arg.conv (parse, print)

let works_arg =
  Arg.(
    value
    & opt (some floats_conv) None
    & info [ "works" ] ~docv:"W1,..,WN" ~doc:"Stage computation weights.")

let deltas_arg =
  Arg.(
    value
    & opt (some floats_conv) None
    & info [ "deltas" ] ~docv:"D0,..,DN"
        ~doc:"Message sizes, one more entry than stages.")

let speeds_arg =
  Arg.(
    value
    & opt (some floats_conv) None
    & info [ "speeds" ] ~docv:"S1,..,SP" ~doc:"Processor speeds.")

let bandwidth_arg =
  Arg.(value & opt float 10. & info [ "bandwidth"; "b" ] ~doc:"Link bandwidth.")

let file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "file"; "f" ] ~docv:"FILE"
        ~doc:"Load the instance from a file (see Instance_io's format).")

let out_arg =
  Arg.(value & opt string "results" & info [ "out"; "o" ] ~doc:"Output directory.")

let pairs_arg =
  Arg.(
    value
    & opt int 50
    & info [ "pairs" ] ~doc:"Random application/platform pairs per point.")

let points_arg =
  Arg.(value & opt int 15 & info [ "points" ] ~doc:"Sweep points per heuristic.")

let seed_arg = Arg.(value & opt int 2007 & info [ "seed" ] ~doc:"Campaign seed.")

(* Multicore execution: the flag sets the process-wide pool width used
   by every parallel loop (campaign sweeps, exhaustive root splitting).
   Validation, cap and help text are Pool's — shared with the bench. *)
let jobs_arg =
  let default = Pipeline_util.Pool.recommended_jobs () in
  let jobs_conv =
    let parse s =
      match Pipeline_util.Pool.parse_jobs s with
      | Ok n -> Ok n
      | Error msg -> Error (`Msg msg)
    in
    Arg.conv (parse, Format.pp_print_int)
  in
  Arg.(
    value
    & opt jobs_conv default
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:(Pipeline_util.Pool.jobs_doc ~default ^ "."))

(* Evaluated before the command body runs: cmdliner evaluates argument
   terms before applying the run function, so threading this [unit
   Term.t] as the first argument installs the pool width up front. *)
let jobs_setup = Term.(const Pipeline_util.Pool.set_jobs $ jobs_arg)

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:
          "Collect the deterministic observability counters (branches \
           explored, DES events, ...) and print the summary table after the \
           command. Counter values are bit-identical at any --jobs.")

let obs_trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record timed spans and write them to $(docv) as Chrome \
           trace_event JSON (open in chrome://tracing or Perfetto).")

(* Same trick as [jobs_setup]: the switches flip before the command body
   runs; the pair is passed back so [with_obs] can report afterwards. *)
let obs_setup metrics trace =
  Obs.set_metrics metrics;
  if trace <> None then Obs.set_tracing true;
  (metrics, trace)

let obs_args = Term.(const obs_setup $ metrics_arg $ obs_trace_arg)

let with_obs (metrics, trace) f =
  let result = f () in
  if metrics then print_string (Obs.summary_table ());
  Option.iter
    (fun path ->
      Obs.write_trace path;
      Format.printf "wrote Chrome trace: %s@." path)
    trace;
  result

let die fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 2) fmt

(* Generated instances: --family draws the experiment families'
   deterministic instances, one SplitMix64 stream per
   (seed, family, n, p). The e6 family goes through
   [Pipeline_experiments.Scaling.instance], so `solve --family e6` is
   pointed at the exact web-scale rungs the bench's scaling ladder
   times (DESIGN.md §11). *)
let family_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "family" ] ~docv:"FAMILY"
        ~doc:
          "Generate the instance instead of loading one: experiment family \
           $(b,e1)..$(b,e4) (paper setting, comm-homogeneous platform), \
           $(b,e6) (web scale: tiered platform, the bench scaling ladder's \
           instances), the fully-het families $(b,e5), $(b,e5-clustered), \
           $(b,e5-bottleneck) (per-link bandwidth matrices, DESIGN.md §13), \
           or $(b,jpeg2000) (the fixed five-stage encoder pipeline on a \
           clustered platform; $(b,--stages) is ignored). Requires \
           $(b,--stages) and $(b,--procs).")

let stages_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "stages" ] ~docv:"N" ~doc:"Stage count for --family.")

let procs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "procs" ] ~docv:"P" ~doc:"Processor count for --family.")

let gen_seed_arg =
  Arg.(
    value
    & opt int 2007
    & info [ "gen-seed" ] ~docv:"SEED"
        ~doc:"Generator seed for --family (default: the campaign seed 2007).")

let generate_instance ~family ~stages ~procs ~seed =
  let name = String.lowercase_ascii family in
  let n =
    match (name, stages) with
    | "jpeg2000", _ -> 5 (* the encoder pipeline has five fixed stages *)
    | _, Some n -> n
    | _, None -> die "--family requires --stages"
  in
  let p =
    match procs with Some p -> p | None -> die "--family requires --procs"
  in
  if n < 1 then die "--stages must be >= 1";
  if p < 1 then die "--procs must be >= 1";
  match name with
  | "e6" -> Pipeline_experiments.Scaling.instance ~seed ~n ~p
  | "e5" | "e5-clustered" | "e5-bottleneck" | "jpeg2000" ->
    (* Like e6, pointed at the exact instances the het campaign
       measures: the first element of the family's deterministic
       batch. *)
    let family =
      match name with
      | "e5" -> Pipeline_experiments.Het_campaign.Uniform_links
      | "e5-clustered" -> Pipeline_experiments.Het_campaign.Clustered
      | "e5-bottleneck" -> Pipeline_experiments.Het_campaign.Bottleneck
      | _ -> Pipeline_experiments.Het_campaign.Jpeg2000
    in
    Pipeline_experiments.Het_campaign.family_instance ~seed ~family ~n ~p 0
  | ("e1" | "e2" | "e3" | "e4") as name ->
    let spec =
      match name with
      | "e1" -> App_generator.e1 ~n
      | "e2" -> App_generator.e2 ~n
      | "e3" -> App_generator.e3 ~n
      | _ -> App_generator.e4 ~n
    in
    let tag = Hashtbl.hash (seed, "cli-" ^ name, n, p) in
    let rng = Pipeline_util.Rng.create tag in
    let app = App_generator.generate rng spec in
    let platform = Platform_generator.comm_homogeneous rng ~p in
    Instance.make ~id:0 ~seed:tag app platform
  | other ->
    die
      "unknown family %s (e1, e2, e3, e4, e5, e5-clustered, e5-bottleneck, \
       e6 or jpeg2000)"
      other

(* The instance comes from --file, from the three array options, or from
   a --family generator. *)
let load_instance file works deltas speeds bandwidth family stages procs
    gen_seed =
  match (file, works, deltas, speeds, family) with
  | Some path, None, None, None, None -> (
    match Instance_io.load path with
    | Ok inst -> inst
    | Error e -> die "%s: %s" path (Format.asprintf "%a" Instance_io.pp_error e))
  | None, Some works, Some deltas, Some speeds, None ->
    let app = Application.make ~deltas works in
    let platform = Platform.comm_homogeneous ~bandwidth speeds in
    Instance.make app platform
  | None, None, None, None, Some family ->
    generate_instance ~family ~stages ~procs ~seed:gen_seed
  | _ ->
    die
      "provide exactly one of --file, --works/--deltas/--speeds, or --family"

let instance_args =
  Term.(
    const load_instance $ file_arg $ works_arg $ deltas_arg $ speeds_arg
    $ bandwidth_arg $ family_arg $ stages_arg $ procs_arg $ gen_seed_arg)

(* Web-scale instances print as a one-line shape summary: the full
   weight vectors of a 50 000-stage pipeline are not terminal material.
   Paper-sized instances keep the historical verbatim format. *)
let pp_instance fmt (inst : Instance.t) =
  let n = Application.n inst.Instance.app in
  let p = Platform.p inst.Instance.platform in
  if n <= 200 && p <= 200 then Instance.pp fmt inst
  else
    Format.fprintf fmt "instance#%d[seed=%d; pipeline[n=%d]; platform[p=%d]]"
      inst.Instance.id inst.Instance.seed n p

(* Same idea for solutions: past ~100 intervals the verbatim mapping is
   noise, the objectives are the signal. *)
let pp_solution fmt (sol : Solution.t) =
  if Mapping.m sol.Solution.mapping <= 100 then Solution.pp fmt sol
  else
    Format.fprintf fmt "{%d intervals} period=%g latency=%g"
      (Mapping.m sol.Solution.mapping) sol.Solution.period sol.Solution.latency

(* ------------------------------------------------------------------ *)
(* solve                                                               *)
(* ------------------------------------------------------------------ *)

let period_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "period" ] ~doc:"Fixed period: minimise latency.")

let latency_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "latency" ] ~doc:"Fixed latency: minimise period.")

let reliability_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "reliability" ] ~docv:"F"
        ~doc:
          "Failure-probability bound in [0,1]: minimise latency under both \
           the period bound and $(docv) (tri-criteria, deal mappings with \
           replication). Requires --period and --fail-prob.")

let fail_prob_arg =
  Arg.(
    value
    & opt (some floats_conv) None
    & info [ "fail-prob" ] ~docv:"F1,..,FP"
        ~doc:
          "Per-processor failure probabilities (one value is broadcast to \
           every processor).")

(* Build the reliability vector from --fail-prob: one value broadcasts,
   otherwise one entry per processor. *)
let reliability_of inst = function
  | None -> die "--reliability requires --fail-prob"
  | Some probs ->
    let p = Platform.p inst.Instance.platform in
    if Array.length probs = 1 then Reliability.uniform ~p probs.(0)
    else if Array.length probs = p then Reliability.make probs
    else
      die "--fail-prob needs 1 or %d values, got %d" p (Array.length probs)

let solve_reliability inst ~period ~failure fail_prob =
  let rel = reliability_of inst fail_prob in
  match Pipeline_ft.Ft_heuristic.minimise_latency inst rel ~period ~failure with
  | None ->
    Format.printf "%-18s infeasible (period %g, failure %g)@." "tri-criteria"
      period failure
  | Some sol ->
    Format.printf "%-18s %s period=%g latency=%g failure=%.3g@." "tri-criteria"
      (Pipeline_deal.Deal_mapping.to_string sol.Pipeline_ft.Ft_heuristic.mapping)
      sol.Pipeline_ft.Ft_heuristic.period sol.Pipeline_ft.Ft_heuristic.latency
      sol.Pipeline_ft.Ft_heuristic.failure

(* Print one unified-registry row in the historical formats: plain
   mappings through [Solution.pp] (and optionally local search on top),
   replicated ones in the deal notation, with the failure probability
   when the row reports one. *)
let print_outcome ~kind ~threshold ~polish (inst : Instance.t)
    (info : Ureg.info) =
  match info.Ureg.solve inst ~threshold with
  | None -> Format.printf "%-18s FAILED@." info.Ureg.paper_name
  | Some o -> (
    match Ureg.solution_of_outcome o with
    | Some sol ->
      Format.printf "%-18s %a@." info.Ureg.paper_name pp_solution sol;
      if polish then begin
        let objective, feasible =
          match kind with
          | Registry.Period_fixed ->
            ( Pipeline_optimal.Local_search.Latency_then_period,
              fun s -> Solution.respects_period s threshold )
          | Registry.Latency_fixed ->
            ( Pipeline_optimal.Local_search.Period_then_latency,
              fun s -> Solution.respects_latency s threshold )
        in
        let better =
          Pipeline_optimal.Local_search.improve ~objective ~feasible inst sol
        in
        Format.printf "%-18s %a@." "  + local search" pp_solution better
      end
    | None ->
      Format.printf "%-18s %s period=%g latency=%g%s@." info.Ureg.paper_name
        (Deal_mapping.to_string o.Ureg.mapping)
        o.Ureg.period o.Ureg.latency
        (match o.Ureg.failure with
        | None -> ""
        | Some f -> Printf.sprintf " failure=%.3g" f))

let solve_cmd =
  let heuristic =
    Arg.(
      value
      & opt (some string) None
      & info [ "heuristic" ]
          ~doc:
            "Run only this heuristic — any unified-registry row (id, H1..H6, \
             HetP.., DealP/DealL, FtTri or paper name; see $(b,list)).")
  in
  let exact =
    Arg.(
      value & flag
      & info [ "exact" ]
          ~doc:
            "Also run the exact solver: the subset-DP on comm-homogeneous \
             platforms, the (guarded) exhaustive oracle on fully \
             heterogeneous ones.")
  in
  let polish =
    Arg.(
      value & flag
      & info [ "polish" ]
          ~doc:"Post-optimise each heuristic solution by local search.")
  in
  let run () obs inst period latency heuristic exact polish reliability
      fail_prob =
    with_obs obs @@ fun () ->
    (* Resolve --heuristic before producing any output: an unknown id is
       one diagnostic line on stderr and exit 2, whatever the platform
       or criteria combination (documented under EXIT STATUS). *)
    let chosen =
      match heuristic with
      | None -> None
      | Some name -> (
        match Ureg.resolve name with
        | Ok info -> Some (name, info)
        | Error msg -> die "%s" msg)
    in
    match reliability with
    | Some failure ->
      let period =
        match (period, latency) with
        | Some p, None -> p
        | _ -> die "--reliability requires --period (and excludes --latency)"
      in
      (match chosen with
      | Some (name, info) when info.Ureg.stack <> Ureg.Ft ->
        die "heuristic %s is not a tri-criteria heuristic (only the Ft rows \
             solve under a failure bound)" name
      | _ -> ());
      Format.printf "%a@." pp_instance inst;
      solve_reliability inst ~period ~failure fail_prob
    | None ->
    let kind, threshold =
      match (period, latency) with
      | Some p, None -> (Registry.Period_fixed, p)
      | None, Some l -> (Registry.Latency_fixed, l)
      | _ -> die "exactly one of --period / --latency is required"
    in
    (match chosen with
    | Some (name, _) -> (
      (* Re-resolve with the threshold kind so the mismatch diagnostic is
         the registry's own (shared with the serve daemon's HTTP 400). *)
      match Ureg.resolve ~kind name with
      | Ok _ -> ()
      | Error msg -> die "%s" msg)
    | None -> ());
    if not (Platform.is_comm_homogeneous inst.Instance.platform) then begin
      match chosen with
      | Some (name, info) when info.Ureg.stack <> Ureg.Het ->
        die "heuristic %s requires a comm-homogeneous platform" name
      | Some (_, info) ->
        Format.printf "%a@." pp_instance inst;
        print_outcome ~kind ~threshold ~polish inst info
      | None ->
        (* Fully heterogeneous platform: dispatch to the het extension. *)
        Format.printf "%a@." pp_instance inst;
        let result =
          match kind with
          | Registry.Period_fixed ->
            Pipeline_het.Het_heuristics.minimise_latency_under_period inst
              ~period:threshold
          | Registry.Latency_fixed ->
            Pipeline_het.Het_heuristics.minimise_period_under_latency inst
              ~latency:threshold
        in
        (match result with
        | None -> Format.printf "%-18s FAILED@." "het splitting"
        | Some sol -> Format.printf "%-18s %a@." "het splitting" pp_solution sol);
        if exact then begin
          (* The bi-criteria DPs need comm-homogeneity; the exhaustive
             oracle scores any platform, behind its enumeration guard. *)
          let n = Application.n inst.Instance.app
          and p = Platform.p inst.Instance.platform in
          (* One wording for CLI exit 2 and serve HTTP 400, with the
             actual mapping count: Exhaustive.oversized. *)
          (match Pipeline_optimal.Exhaustive.oversized ~n ~p with
          | Some diagnostic -> die "%s" diagnostic
          | None -> ());
          let sol =
            match kind with
            | Registry.Period_fixed ->
              Pipeline_optimal.Exhaustive.min_latency_under_period inst
                ~period:threshold
            | Registry.Latency_fixed ->
              Pipeline_optimal.Exhaustive.min_period_under_latency inst
                ~latency:threshold
          in
          match sol with
          | None -> Format.printf "%-18s infeasible@." "exact"
          | Some sol -> Format.printf "%-18s %a@." "exact" pp_solution sol
        end
    end
    else begin
      let selected =
        match chosen with
        | None ->
          List.filter (fun (i : Ureg.info) -> i.Ureg.kind = kind) Ureg.paper
        | Some (_, info) -> [ info ]
      in
      Format.printf "%a@." pp_instance inst;
      List.iter (print_outcome ~kind ~threshold ~polish inst) selected;
      if exact then begin
        let sol =
          match kind with
          | Registry.Period_fixed ->
            Pipeline_optimal.Bicriteria.min_latency_under_period inst
              ~period:threshold
          | Registry.Latency_fixed ->
            Pipeline_optimal.Bicriteria.min_period_under_latency inst
              ~latency:threshold
        in
        match sol with
        | None -> Format.printf "%-18s infeasible@." "exact"
        | Some sol -> Format.printf "%-18s %a@." "exact" pp_solution sol
      end
    end
  in
  Cmd.v
    (Cmd.info "solve" ~doc:"Map one pipeline instance (het platforms use the het extension).")
    Term.(
      const run $ jobs_setup $ obs_args $ instance_args $ period_arg
      $ latency_arg $ heuristic $ exact $ polish $ reliability_arg
      $ fail_prob_arg)

(* ------------------------------------------------------------------ *)
(* one-to-one                                                          *)
(* ------------------------------------------------------------------ *)

let one_to_one_cmd =
  let pareto = Arg.(value & flag & info [ "pareto" ] ~doc:"Print the full front.") in
  let run inst period pareto =
    Format.printf "%a@." pp_instance inst;
    if pareto then
      List.iter
        (fun (sol : Solution.t) -> Format.printf "%a@." Solution.pp sol)
        (Pipeline_optimal.One_to_one.pareto inst)
    else begin
      let by_period = Pipeline_optimal.One_to_one.min_period inst in
      let by_latency = Pipeline_optimal.One_to_one.min_latency inst in
      Format.printf "%-14s %a@." "min period" Solution.pp by_period;
      Format.printf "%-14s %a@." "min latency" Solution.pp by_latency;
      match period with
      | None -> ()
      | Some threshold -> (
        match
          Pipeline_optimal.One_to_one.min_latency_under_period inst
            ~period:threshold
        with
        | None -> Format.printf "%-14s infeasible at %g@." "constrained" threshold
        | Some sol -> Format.printf "%-14s %a@." "constrained" Solution.pp sol)
    end
  in
  Cmd.v
    (Cmd.info "one-to-one"
       ~doc:"Exact polynomial one-to-one mapping (bottleneck + Hungarian).")
    Term.(const run $ instance_args $ period_arg $ pareto)

(* ------------------------------------------------------------------ *)
(* deal                                                                *)
(* ------------------------------------------------------------------ *)

let deal_cmd =
  let run inst period latency =
    Format.printf "%a@." pp_instance inst;
    let print_solution = function
      | None -> Format.printf "deal heuristic: FAILED@."
      | Some (sol : Pipeline_deal.Deal_heuristic.solution) ->
        Format.printf "deal heuristic: %s period=%g latency=%g@."
          (Pipeline_deal.Deal_mapping.to_string sol.Pipeline_deal.Deal_heuristic.mapping)
          sol.Pipeline_deal.Deal_heuristic.period
          sol.Pipeline_deal.Deal_heuristic.latency
    in
    match (period, latency) with
    | Some p, None ->
      print_solution
        (Pipeline_deal.Deal_heuristic.minimise_latency_under_period inst ~period:p)
    | None, Some l ->
      print_solution
        (Pipeline_deal.Deal_heuristic.minimise_period_under_latency inst ~latency:l)
    | _ -> die "exactly one of --period / --latency is required"
  in
  Cmd.v
    (Cmd.info "deal"
       ~doc:"Splitting + replication heuristic (the paper's deal-skeleton extension).")
    Term.(const run $ instance_args $ period_arg $ latency_arg)

(* ------------------------------------------------------------------ *)
(* scalarised                                                          *)
(* ------------------------------------------------------------------ *)

let scalarised_cmd =
  let alpha =
    Arg.(
      value
      & opt float 0.5
      & info [ "alpha" ] ~doc:"Weight of the period in [0,1] (latency gets 1-alpha).")
  in
  let exact = Arg.(value & flag & info [ "exact" ] ~doc:"Also run the exact solver.") in
  let run inst alpha exact =
    Format.printf "%a@." pp_instance inst;
    let heur = Pipeline_optimal.Scalarised.heuristic inst ~alpha in
    Format.printf "%-10s %a  (objective %g)@." "heuristic" Solution.pp heur
      (Pipeline_optimal.Scalarised.value ~alpha heur);
    if exact then begin
      let best = Pipeline_optimal.Scalarised.optimal inst ~alpha in
      Format.printf "%-10s %a  (objective %g)@." "exact" Solution.pp best
        (Pipeline_optimal.Scalarised.value ~alpha best)
    end
  in
  Cmd.v
    (Cmd.info "scalarised"
       ~doc:"Minimise alpha*period + (1-alpha)*latency.")
    Term.(const run $ instance_args $ alpha $ exact)

(* ------------------------------------------------------------------ *)
(* figure                                                              *)
(* ------------------------------------------------------------------ *)

let figure_cmd =
  let label =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"LABEL" ~doc:"Figure label, e.g. 'Figure 2(a)'.")
  in
  let run () obs label pairs points seed out =
    with_obs obs @@ fun () ->
    if String.lowercase_ascii label = "e5" then begin
      (* Extension figure: fully heterogeneous platforms. *)
      let fig =
        Pipeline_experiments.Het_campaign.figure ~pairs ~sweep_points:points
          ~seed ~n:20 10
      in
      print_endline (Pipeline_experiments.Report.figure_to_ascii fig);
      List.iter (Format.printf "wrote %s@.")
        (Pipeline_experiments.Report.write_figure ~dir:out fig)
    end
    else
    match
      Pipeline_experiments.Campaign.run_paper_figure ~pairs ~sweep_points:points
        ~seed label
    with
    | None ->
      Format.eprintf "Unknown figure %S. Available:@." label;
      List.iter
        (fun (l, setup) ->
          Format.eprintf "  %-12s %s@." l (Pipeline_experiments.Config.setup_label setup))
        (Pipeline_experiments.Campaign.paper_figures ());
      Format.eprintf "  %-12s extension: fully heterogeneous platforms@." "E5";
      exit 2
    | Some fig ->
      print_endline (Pipeline_experiments.Report.figure_to_ascii fig);
      let paths = Pipeline_experiments.Report.write_figure ~dir:out fig in
      List.iter (Format.printf "wrote %s@.") paths
  in
  Cmd.v
    (Cmd.info "figure" ~doc:"Reproduce one paper figure.")
    Term.(
      const run $ jobs_setup $ obs_args $ label $ pairs_arg $ points_arg
      $ seed_arg $ out_arg)

(* ------------------------------------------------------------------ *)
(* table1                                                              *)
(* ------------------------------------------------------------------ *)

let experiment_conv =
  let parse s =
    match Pipeline_experiments.Config.experiment_of_string s with
    | Some e -> Ok e
    | None -> Error (`Msg (Printf.sprintf "unknown experiment %s" s))
  in
  Arg.conv
    ( parse,
      fun fmt e ->
        Format.pp_print_string fmt (Pipeline_experiments.Config.experiment_name e) )

let table1_cmd =
  let experiment =
    Arg.(
      value
      & opt (some experiment_conv) None
      & info [ "experiment"; "e" ] ~doc:"Experiment family (E1..E4); default all.")
  in
  let p = Arg.(value & opt int 10 & info [ "procs" ] ~doc:"Number of processors.") in
  let ns =
    Arg.(
      value
      & opt (list int) [ 5; 10; 20; 40 ]
      & info [ "ns" ] ~doc:"Stage counts (columns).")
  in
  let max_aggregate =
    Arg.(
      value
      & flag
      & info [ "max" ]
          ~doc:"Report the worst per-instance boundary instead of the mean.")
  in
  let run () obs experiment p ns max_aggregate pairs seed out =
    with_obs obs @@ fun () ->
    let aggregate =
      if max_aggregate then Pipeline_experiments.Failure.Max
      else Pipeline_experiments.Failure.Mean
    in
    let experiments =
      match experiment with
      | Some e -> [ e ]
      | None -> Pipeline_experiments.Config.all_experiments
    in
    List.iter
      (fun e ->
        let table =
          Pipeline_experiments.Failure.table ~aggregate ~pairs ~seed e ~p ~ns
        in
        Format.printf "Failure thresholds, %s (%s), p = %d:@.%s@."
          (Pipeline_experiments.Config.experiment_name e)
          (Pipeline_experiments.Config.experiment_title e)
          p
          (Pipeline_experiments.Failure.render table);
        let paths = Pipeline_experiments.Report.write_table ~dir:out table in
        List.iter (Format.printf "wrote %s@.") paths)
      experiments
  in
  Cmd.v
    (Cmd.info "table1" ~doc:"Reproduce the failure-threshold table (Table 1).")
    Term.(
      const run $ jobs_setup $ obs_args $ experiment $ p $ ns $ max_aggregate
      $ pairs_arg $ seed_arg $ out_arg)

(* ------------------------------------------------------------------ *)
(* campaign                                                            *)
(* ------------------------------------------------------------------ *)

let campaign_cmd =
  let run () obs pairs points seed out =
    with_obs obs @@ fun () ->
    List.iter
      (fun (label, _) ->
        match
          Pipeline_experiments.Campaign.run_paper_figure ~pairs
            ~sweep_points:points ~seed label
        with
        | None -> ()
        | Some fig ->
          print_endline (Pipeline_experiments.Report.figure_to_ascii fig);
          let paths = Pipeline_experiments.Report.write_figure ~dir:out fig in
          List.iter (Format.printf "wrote %s@.") paths)
      (Pipeline_experiments.Campaign.paper_figures ());
    List.iter
      (fun e ->
        let table =
          Pipeline_experiments.Failure.table ~pairs ~seed e ~p:10
            ~ns:[ 5; 10; 20; 40 ]
        in
        Format.printf "Failure thresholds, %s, p = 10:@.%s@."
          (Pipeline_experiments.Config.experiment_name e)
          (Pipeline_experiments.Failure.render table);
        ignore (Pipeline_experiments.Report.write_table ~dir:out table))
      Pipeline_experiments.Config.all_experiments
  in
  Cmd.v
    (Cmd.info "campaign"
       ~doc:"Run the full simulation campaign (all figures + tables).")
    Term.(
      const run $ jobs_setup $ obs_args $ pairs_arg $ points_arg $ seed_arg
      $ out_arg)

(* ------------------------------------------------------------------ *)
(* validate                                                            *)
(* ------------------------------------------------------------------ *)

let validate_cmd =
  let trials =
    Arg.(value & opt int 100 & info [ "trials" ] ~doc:"Random instances to check.")
  in
  let run trials seed =
    let rng = Pipeline_util.Rng.create seed in
    let worst = ref 0. in
    for i = 1 to trials do
      let n = 1 + Pipeline_util.Rng.int rng 20 in
      let p = 1 + Pipeline_util.Rng.int rng 8 in
      let app = App_generator.generate rng (App_generator.e2 ~n) in
      let platform = Platform_generator.comm_homogeneous rng ~p in
      let inst = Instance.make ~id:i app platform in
      let threshold = Instance.single_proc_period inst *. 0.7 in
      match Sp_mono_p.solve inst ~period:threshold with
      | None -> ()
      | Some sol ->
        let report = Pipeline_sim.Validate.check ~datasets:200 inst sol.mapping in
        worst :=
          Float.max !worst
            (Float.max report.Pipeline_sim.Validate.period_rel_error
               report.Pipeline_sim.Validate.latency_rel_error);
        if not (Pipeline_sim.Validate.agrees report) then
          Format.printf "MISMATCH on instance %d: %a@." i Pipeline_sim.Validate.pp
            report
    done;
    Format.printf
      "validated %d random mapped instances; worst relative error %.2e@." trials
      !worst
  in
  Cmd.v
    (Cmd.info "validate"
       ~doc:"Check the analytic cost model against the one-port simulator.")
    Term.(const run $ trials $ seed_arg)

(* ------------------------------------------------------------------ *)
(* list                                                                *)
(* ------------------------------------------------------------------ *)

let list_cmd =
  let run () =
    let print_group title infos =
      Format.printf "%s@." title;
      List.iter
        (fun (i : Ureg.info) ->
          Format.printf "  %-22s %-24s %s@." i.Ureg.id i.Ureg.paper_name
            (match i.Ureg.kind with
            | Ureg.Period_fixed -> "period fixed, minimises latency"
            | Ureg.Latency_fixed -> "latency fixed, minimises period"))
        infos
    in
    print_group "Paper heuristics (Table 1 order):" Ureg.paper;
    print_group "Extensions:" Ureg.extended;
    print_group "Fully heterogeneous platforms:" Ureg.het;
    print_group "Interval replication (deal skeleton):" Ureg.deal;
    print_group "Tri-criteria (period + latency + failure bound):" Ureg.ft
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List every heuristic in the unified registry.")
    Term.(const run $ const ())

(* ------------------------------------------------------------------ *)
(* eval                                                                *)
(* ------------------------------------------------------------------ *)

let mapping_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "mapping"; "m" ] ~docv:"MAP"
        ~doc:"Explicit mapping, e.g. '1-3:2 4:0 5-6:1'.")

let parse_mapping text =
  match Mapping_io.of_string text with
  | Ok mapping -> mapping
  | Error e -> die "bad mapping: %s" e

let eval_cmd =
  let run inst mapping =
    let mapping =
      match mapping with
      | Some text -> parse_mapping text
      | None -> die "--mapping is required"
    in
    Format.printf "%a@." pp_instance inst;
    let s = Metrics.summary inst.Instance.app inst.Instance.platform mapping in
    Format.printf "%s@.  %a@." (Mapping.to_string mapping) Metrics.pp_summary s;
    let report = Pipeline_sim.Validate.check inst mapping in
    Format.printf "  simulator: %a@." Pipeline_sim.Validate.pp report
  in
  Cmd.v
    (Cmd.info "eval"
       ~doc:"Evaluate an explicit mapping with the cost model and the simulator.")
    Term.(const run $ instance_args $ mapping_arg)

(* ------------------------------------------------------------------ *)
(* simulate                                                            *)
(* ------------------------------------------------------------------ *)

(* A crash event on the command line: AT:PROC, or AT:PROC:RECOVER for a
   transient failure. *)
let crash_conv =
  let parse s =
    let fail () =
      Error
        (`Msg
           (Printf.sprintf "not a crash spec (AT:PROC or AT:PROC:RECOVER): %s" s))
    in
    match String.split_on_char ':' s with
    | [ at; proc ] -> (
      try
        Ok
          {
            Pipeline_sim.Workload_sim.at = float_of_string at;
            proc = int_of_string proc;
            recover_at = None;
          }
      with _ -> fail ())
    | [ at; proc; recover ] -> (
      try
        Ok
          {
            Pipeline_sim.Workload_sim.at = float_of_string at;
            proc = int_of_string proc;
            recover_at = Some (float_of_string recover);
          }
      with _ -> fail ())
    | _ -> fail ()
  in
  let print fmt (c : Pipeline_sim.Workload_sim.crash) =
    match c.recover_at with
    | None -> Format.fprintf fmt "%g:%d" c.at c.proc
    | Some r -> Format.fprintf fmt "%g:%d:%g" c.at c.proc r
  in
  Arg.conv (parse, print)

let simulate_cmd =
  let datasets =
    Arg.(value & opt int 50 & info [ "datasets" ] ~doc:"Data sets to feed.")
  in
  let crashes =
    Arg.(
      value
      & opt_all crash_conv []
      & info [ "crash" ] ~docv:"AT:PROC[:RECOVER]"
          ~doc:
            "Inject a processor crash at time $(i,AT) (repeatable). Without \
             $(i,RECOVER) the crash is permanent.")
  in
  let retries =
    Arg.(
      value
      & opt int 0
      & info [ "retries" ]
          ~doc:"Re-execution budget per (interval, data set) after recovery.")
  in
  let backoff =
    Arg.(
      value
      & opt float 0.
      & info [ "backoff" ]
          ~doc:"Simulated delay between a recovery and the re-execution.")
  in
  let noise =
    Arg.(
      value
      & opt float 0.
      & info [ "noise" ] ~doc:"Computation-time jitter amplitude in [0,1).")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"BASE"
          ~doc:"Write BASE.csv and BASE.json (Chrome trace) for the run.")
  in
  let crash_trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "crash-trace" ] ~docv:"FILE"
          ~doc:
            "Churn trace CSV: $(i,at,proc,event[,factor]) rows with event one \
             of crash / recover / join / speed. Compiled into crash windows \
             and slowdowns on top of any $(b,--crash) events.")
  in
  let run inst period mapping datasets noise trace_out seed crashes retries
      backoff crash_trace =
    Format.printf "%a@." pp_instance inst;
    let sol =
      match mapping with
      | Some text ->
        Solution.of_mapping inst (parse_mapping text)
      | None -> (
        let threshold =
          Option.value period ~default:(Instance.single_proc_period inst *. 0.85)
        in
        match Sp_mono_p.solve inst ~period:threshold with
        | None -> die "no mapping achieves period %g" threshold
        | Some sol -> sol)
    in
    let trace_crashes, trace_slowdowns =
      match crash_trace with
      | None -> ([], [])
      | Some file -> (
        match Pipeline_stream.Churn.load file with
        | Error msg -> die "%s: %s" file msg
        | Ok events ->
          let p = Platform.p inst.Instance.platform in
          ( Pipeline_stream.Churn.crashes ~p events,
            Pipeline_stream.Churn.slowdowns events ))
    in
    let crashes = crashes @ trace_crashes in
    let module W = Pipeline_sim.Workload_sim in
    Format.printf "mapping: %a@." Solution.pp sol;
    let stats =
      W.run
        ~config:
          {
            W.default_config with
            datasets;
            noise = (if noise = 0. then W.No_noise else W.Uniform_factor noise);
            slowdowns = trace_slowdowns;
            crashes;
            retry = { W.max_retries = retries; backoff };
            seed;
          }
        inst sol.Solution.mapping
    in
    if crashes <> [] || trace_slowdowns <> [] then begin
      (* Fault injection: the analytic gantt/trace describe the crash-free
         schedule, so only the measured statistics are reported here. *)
      Format.printf
        "faults: %d offered, %d completed (survival %.3f), %d killed \
         in-flight, %d dropped, %d retries@."
        stats.W.offered stats.W.completed (W.survival stats) stats.W.killed
        stats.W.dropped stats.W.retries;
      if stats.W.completed > 0 then
        Format.printf
          "steady period %.3f (analytic %.3f); latency mean %.2f p95 %.2f \
           max %.2f@."
          stats.W.steady_period sol.Solution.period stats.W.latency_mean
          stats.W.latency_p95 stats.W.latency_max
    end
    else begin
      let trace = Pipeline_sim.Runner.run inst sol.Solution.mapping ~datasets in
      Format.printf "@.%s@."
        (Pipeline_sim.Trace.gantt ~width:76 trace);
      Format.printf
        "steady period %.3f (analytic %.3f, noise %.0f%%); latency mean %.2f \
         p95 %.2f max %.2f@."
        stats.W.steady_period sol.Solution.period (100. *. noise)
        stats.W.latency_mean stats.W.latency_p95 stats.W.latency_max;
      if datasets >= 10 then
        Format.printf "@.latency distribution:@.%s"
          (Pipeline_util.Histogram.render ~width:48
             (Pipeline_util.Histogram.build ~bins:8 stats.W.latencies));
      match trace_out with
      | None -> ()
      | Some base ->
        Pipeline_util.Csv.to_file (base ^ ".csv") (Pipeline_sim.Trace.to_csv trace);
        Pipeline_util.Csv.to_file (base ^ ".json")
          (Pipeline_sim.Trace.to_chrome_json trace);
        Format.printf "wrote %s.csv and %s.json@." base base
    end
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:
         "Map with H1 and execute on the simulator (Gantt, stats, traces); \
          --crash injects processor failures, --crash-trace replays a churn \
          CSV.")
    Term.(
      const run $ instance_args $ period_arg $ mapping_arg $ datasets $ noise
      $ trace_out $ seed_arg $ crashes $ retries $ backoff $ crash_trace)

(* ------------------------------------------------------------------ *)
(* serve                                                               *)
(* ------------------------------------------------------------------ *)

let serve_cmd =
  let port_arg =
    Arg.(
      value
      & opt int 8080
      & info [ "port"; "p" ] ~docv:"PORT"
          ~doc:"TCP port to listen on (loopback only); 0 picks a free one.")
  in
  let max_body_arg =
    Arg.(
      value
      & opt int (1024 * 1024)
      & info [ "max-body" ] ~docv:"BYTES"
          ~doc:"Largest accepted request body (oversized requests get 413).")
  in
  let run () port max_body =
    if port < 0 || port > 65535 then die "--port must be in 0..65535";
    if max_body < 1 then die "--max-body must be >= 1";
    (* The daemon always meters: /metrics is an endpoint, not an opt-in
       flag, so the counters must accumulate from the first request. *)
    Obs.set_metrics true;
    let protocol = Pipeline_serve.Protocol.create () in
    let server =
      try Pipeline_serve.Server.start ~port ~max_body protocol
      with Unix.Unix_error (err, _, _) ->
        die "cannot listen on 127.0.0.1:%d: %s" port (Unix.error_message err)
    in
    (* Parsed by the CI smoke script — keep the format stable. *)
    Format.printf "pipeline-sched: serving on 127.0.0.1:%d (jobs %d)@."
      (Pipeline_serve.Server.port server)
      (Pipeline_util.Pool.jobs ());
    (* Handlers may run at any poll point: only the signal-safe atomic
       store; the join and socket close happen below, on the way out. *)
    let shutdown _signal = Pipeline_serve.Server.request_stop server in
    Sys.set_signal Sys.sigint (Sys.Signal_handle shutdown);
    Sys.set_signal Sys.sigterm (Sys.Signal_handle shutdown);
    Pipeline_serve.Server.wait server;
    Pipeline_serve.Server.stop server;
    Format.printf "pipeline-sched: server stopped@."
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the scheduling daemon: JSON over HTTP on loopback (solve, \
          pareto, simulate, metrics, health), one request at a time, \
          responses byte-identical at any --jobs. See doc/serving.mld.")
    Term.(const run $ jobs_setup $ port_arg $ max_body_arg)

(* ------------------------------------------------------------------ *)
(* pareto                                                              *)
(* ------------------------------------------------------------------ *)

let pareto_cmd =
  let run () obs inst =
    with_obs obs @@ fun () ->
    Format.printf "%a@." pp_instance inst;
    List.iter
      (fun (sol : Solution.t) -> Format.printf "%a@." Solution.pp sol)
      (Pipeline_optimal.Bicriteria.pareto inst)
  in
  Cmd.v
    (Cmd.info "pareto" ~doc:"Exact period/latency Pareto front (exponential in p).")
    Term.(const run $ jobs_setup $ obs_args $ instance_args)

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  let exits =
    Cmd.Exit.info 2
      ~doc:
        "on malformed input: an unreadable or ill-formed instance file, an \
         invalid --mapping, a --heuristic id that is not in the registry, \
         inconsistent options (e.g. both --period and --latency), or an \
         instance the requested solver rejects."
    :: Cmd.Exit.defaults
  in
  let man =
    [
      `S Manpage.s_exit_status;
      `P
        "Commands exit 0 on success and 2 on malformed input (bad instance \
         file, invalid mapping, unknown --heuristic id, inconsistent \
         options) — scripted callers can rely on the non-zero status instead \
         of parsing stderr; nothing is printed on stdout first. The \
         reproduction gate lives in the bench harness: $(b,dune exec \
         bench/main.exe -- --table1) exits 1 when a Table 1 cell falls \
         outside the documented tolerance.";
    ]
  in
  let info =
    Cmd.info "pipeline-sched" ~version:"1.0.0" ~exits ~man
      ~doc:"Bi-criteria mapping of pipeline workflows (Benoit et al., 2007)."
  in
  (* [~catch:false] + the handler below: malformed input surfaces as a
     one-line diagnostic and exit code 2, never a backtrace. *)
  exit
    (try Cmd.eval ~catch:false
       (Cmd.group ~default info
          [
            list_cmd;
            solve_cmd;
            one_to_one_cmd;
            deal_cmd;
            scalarised_cmd;
            eval_cmd;
            simulate_cmd;
            figure_cmd;
            table1_cmd;
            campaign_cmd;
            validate_cmd;
            pareto_cmd;
            serve_cmd;
          ])
     with
     | Invalid_argument msg | Failure msg | Sys_error msg ->
       prerr_endline ("pipeline-sched: " ^ msg);
       2)
