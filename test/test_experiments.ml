open Pipeline_model
open Pipeline_experiments
module Series = Pipeline_util.Series

let small_setup ?(experiment = Config.E1) ?(n = 6) ?(p = 4) () =
  Config.default_setup ~pairs:4 ~sweep_points:5 ~seed:99 experiment ~n ~p

(* ------------------------------------------------------------------ *)
(* Config                                                              *)
(* ------------------------------------------------------------------ *)

let test_config_names () =
  Alcotest.(check (list string)) "names"
    [ "E1"; "E2"; "E3"; "E4" ]
    (List.map Config.experiment_name Config.all_experiments);
  Alcotest.(check bool) "of_string roundtrip" true
    (List.for_all
       (fun e ->
         Config.experiment_of_string (Config.experiment_name e) = Some e)
       Config.all_experiments);
  Alcotest.(check bool) "unknown" true (Config.experiment_of_string "E9" = None)

let test_config_specs () =
  let spec = Config.app_spec Config.E1 ~n:7 in
  Alcotest.(check int) "n" 7 spec.App_generator.n;
  (match spec.App_generator.delta with
  | App_generator.Fixed v -> Helpers.check_float "E1 delta fixed" 10. v
  | _ -> Alcotest.fail "E1 deltas should be fixed");
  match (Config.app_spec Config.E4 ~n:3).App_generator.work with
  | App_generator.Float_uniform (lo, hi) ->
    Helpers.check_float "E4 lo" 0.01 lo;
    Helpers.check_float "E4 hi" 10. hi
  | _ -> Alcotest.fail "E4 works should be float-uniform"

let test_config_paper_stage_counts () =
  Alcotest.(check (pair int int)) "E1" (10, 40) (Config.paper_stage_counts Config.E1);
  Alcotest.(check (pair int int)) "E3" (5, 20) (Config.paper_stage_counts Config.E3)

let test_config_setup () =
  let s = Config.default_setup Config.E2 ~n:10 ~p:10 in
  Alcotest.(check int) "pairs default" 50 s.Config.pairs;
  Helpers.check_float "bandwidth" 10. s.Config.bandwidth;
  Alcotest.(check string) "label" "E2 n=10 p=10" (Config.setup_label s);
  Alcotest.(check bool) "invalid rejected" true
    (try
       ignore (Config.default_setup Config.E1 ~n:0 ~p:1);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Workload                                                            *)
(* ------------------------------------------------------------------ *)

let test_workload_deterministic () =
  let setup = small_setup () in
  let a = Workload.instances setup and b = Workload.instances setup in
  List.iter2
    (fun (x : Instance.t) (y : Instance.t) ->
      Alcotest.(check bool) "same app" true (Application.equal x.app y.app);
      Alcotest.(check bool) "same platform" true (Platform.equal x.platform y.platform))
    a b

let test_workload_batch_shape () =
  let setup = small_setup () in
  let batch = Workload.instances setup in
  Alcotest.(check int) "pairs" 4 (List.length batch);
  List.iteri
    (fun i (inst : Instance.t) ->
      Alcotest.(check int) "id" i inst.id;
      Alcotest.(check int) "n" 6 (Application.n inst.app);
      Alcotest.(check int) "p" 4 (Platform.p inst.platform))
    batch

let test_workload_instances_differ () =
  let setup = small_setup () in
  let batch = Workload.instances setup in
  let first = List.hd batch and second = List.nth batch 1 in
  Alcotest.(check bool) "different draws" true
    (not
       (Application.equal first.Instance.app second.Instance.app
       && Platform.equal first.Instance.platform second.Instance.platform))

let test_workload_out_of_range () =
  Alcotest.check_raises "bad index" (Invalid_argument "Workload.instance: out of range")
    (fun () -> ignore (Workload.instance (small_setup ()) 99))

(* ------------------------------------------------------------------ *)
(* Sweep                                                               *)
(* ------------------------------------------------------------------ *)

let test_period_lower_bound_valid () =
  (* The bound must not exceed the true optimal period. *)
  List.iter
    (fun seed ->
      let inst = Helpers.random_instance ~n_max:7 ~p_max:4 seed in
      let lb = Sweep.period_lower_bound inst in
      let opt = (Pipeline_optimal.Bicriteria.min_period inst).Pipeline_core.Solution.period in
      Alcotest.(check bool) "lb <= optimal period" true (lb <= opt +. 1e-9))
    (Helpers.seeds 25)

let test_sweep_bounds_ordered () =
  let batch = Workload.instances (small_setup ()) in
  let plo, phi = Sweep.period_bounds batch in
  let llo, lhi = Sweep.latency_bounds batch in
  Alcotest.(check bool) "period lo <= hi" true (plo <= phi);
  Alcotest.(check bool) "latency lo <= hi" true (llo <= lhi)

let test_sweep_grid () =
  let g = Sweep.grid ~lo:0. ~hi:10. ~points:5 in
  Alcotest.(check int) "points" 5 (List.length g);
  Helpers.check_float "first" 0. (List.hd g);
  Helpers.check_float "last" 10. (List.nth g 4);
  Alcotest.(check (list (float 1e-9))) "degenerate" [ 5. ]
    (Sweep.grid ~lo:5. ~hi:5. ~points:4)

let test_sweep_run_period_fixed () =
  let batch = Workload.instances (small_setup ()) in
  let info = List.hd Pipeline_registry.paper in
  let lo, hi = Sweep.period_bounds batch in
  let thresholds = Sweep.grid ~lo ~hi ~points:6 in
  let series = Sweep.run info batch ~thresholds in
  Alcotest.(check string) "label" info.Pipeline_registry.paper_name
    (Series.label series);
  Alcotest.(check bool) "at most one point per threshold" true
    (Series.length series <= 6);
  (* The highest threshold (single-proc period) always succeeds. *)
  Alcotest.(check bool) "has points" true (Series.length series >= 1);
  (* For a period-fixed heuristic the x of each point is the threshold. *)
  List.iter
    (fun (x, _) ->
      Alcotest.(check bool) "x is one of the thresholds" true
        (List.exists (fun t -> Helpers.feq t x) thresholds))
    (Series.points series)

let test_sweep_run_latency_fixed () =
  let batch = Workload.instances (small_setup ()) in
  let info =
    List.find
      (fun (i : Pipeline_registry.info) ->
        i.Pipeline_registry.kind = Pipeline_registry.Latency_fixed)
      Pipeline_registry.paper
  in
  let lo, hi = Sweep.latency_bounds batch in
  let thresholds = Sweep.grid ~lo ~hi ~points:6 in
  let series = Sweep.run info batch ~thresholds in
  (* For latency-fixed heuristics the y of each point is the threshold. *)
  List.iter
    (fun (_, y) ->
      Alcotest.(check bool) "y is one of the thresholds" true
        (List.exists (fun t -> Helpers.feq t y) thresholds))
    (Series.points series)

let test_success_rate_extremes () =
  let batch = Workload.instances (small_setup ()) in
  let info = List.hd Pipeline_registry.paper in
  let _, hi = Sweep.period_bounds batch in
  Helpers.check_float "everyone succeeds at single-proc period" 1.
    (Sweep.success_rate info batch ~threshold:hi);
  Helpers.check_float "nobody succeeds at 0" 0.
    (Sweep.success_rate info batch ~threshold:0.)

(* ------------------------------------------------------------------ *)
(* Failure thresholds (Table 1)                                        *)
(* ------------------------------------------------------------------ *)

let test_latency_fixed_threshold_is_optimal_latency () =
  let inst = Helpers.random_instance 31337 in
  let lopt = Instance.optimal_latency inst in
  List.iter
    (fun (info : Pipeline_registry.info) ->
      let t = Failure.instance_threshold info inst in
      Alcotest.(check bool) "converges to L_opt" true
        (Float.abs (t -. lopt) <= 1e-6 *. Float.max 1. lopt))
    (List.filter
       (fun (i : Pipeline_registry.info) ->
         i.Pipeline_registry.kind = Pipeline_registry.Latency_fixed)
       Pipeline_registry.paper)

let test_failure_threshold_brackets_behaviour () =
  let inst = Helpers.random_instance 777 in
  let info = List.hd Pipeline_registry.paper in
  let t = Failure.instance_threshold info inst in
  Alcotest.(check bool) "fails just below" true
    (info.Pipeline_registry.solve inst ~threshold:(t *. 0.999) = None);
  Alcotest.(check bool) "succeeds just above" true
    (info.Pipeline_registry.solve inst ~threshold:(t *. 1.001 +. 1e-6) <> None)

let test_failure_table_shape () =
  let table = Failure.table ~pairs:3 ~seed:5 Config.E1 ~p:4 ~ns:[ 4; 6 ] in
  Alcotest.(check int) "six rows" 6 (List.length table.Failure.rows);
  List.iter
    (fun (_, values) -> Alcotest.(check int) "two columns" 2 (List.length values))
    table.Failure.rows;
  (* H5 and H6 rows coincide: both boundaries are the optimal latency. *)
  let row name = List.assoc name table.Failure.rows in
  List.iter2
    (fun a b -> Alcotest.(check bool) "H5 = H6" true (Helpers.feq ~eps:1e-6 a b))
    (row "H5") (row "H6");
  let rendered = Failure.render table in
  Alcotest.(check bool) "mentions H1" true (Str_find.contains rendered "H1");
  Alcotest.(check bool) "markdown has separator" true
    (Str_find.contains (Failure.render_markdown table) "|---|")

let test_failure_thresholds_grow_with_n () =
  (* More stages -> larger minimal achievable period (same platform
     size), so the H1 failure threshold must grow on average. *)
  let t_small = Failure.table ~pairs:5 ~seed:7 Config.E1 ~p:4 ~ns:[ 3; 12 ] in
  match List.assoc "H1" t_small.Failure.rows with
  | [ small; large ] -> Alcotest.(check bool) "monotone-ish" true (small <= large +. 1e-9)
  | _ -> Alcotest.fail "unexpected row shape"

(* ------------------------------------------------------------------ *)
(* Campaign / Report                                                   *)
(* ------------------------------------------------------------------ *)

let test_paper_figures_catalogue () =
  let figures = Campaign.paper_figures () in
  Alcotest.(check int) "twelve plots" 12 (List.length figures);
  let labels = List.map fst figures in
  Alcotest.(check bool) "has 2(a)" true (List.mem "Figure 2(a)" labels);
  Alcotest.(check bool) "has 7(b)" true (List.mem "Figure 7(b)" labels);
  (* p = 100 for figures 6 and 7 *)
  let setup7b = List.assoc "Figure 7(b)" figures in
  Alcotest.(check int) "7(b) p" 100 setup7b.Config.p;
  Alcotest.(check int) "7(b) n" 40 setup7b.Config.n

let test_campaign_figure () =
  let fig = Campaign.figure (small_setup ~experiment:Config.E2 ()) in
  Alcotest.(check int) "six curves" 6 (List.length fig.Campaign.series);
  let labels = List.map Series.label fig.Campaign.series in
  Alcotest.(check bool) "legend has Sp mono, P fix" true
    (List.mem "Sp mono, P fix" labels);
  (* At least the splitting heuristics must produce points. *)
  Alcotest.(check bool) "some data" true
    (List.exists (fun s -> Series.length s > 0) fig.Campaign.series)

let test_run_paper_figure_unknown () =
  Alcotest.(check bool) "unknown label" true
    (Campaign.run_paper_figure "Figure 99" = None)

let test_report_slug () =
  Alcotest.(check string) "figure label" "figure-2-a" (Report.slug "Figure 2(a)");
  Alcotest.(check string) "collapses" "e1-n-40" (Report.slug "E1  n=40")

let test_report_renders_and_writes () =
  let fig = Campaign.figure ~label:"Test fig" (small_setup ()) in
  Alcotest.(check bool) "ascii plot non-empty" true
    (String.length (Report.figure_to_ascii fig) > 100);
  Alcotest.(check bool) "dat non-empty" true
    (String.length (Report.figure_to_dat fig) > 10);
  let dir = Filename.temp_file "pwrep" "" in
  Sys.remove dir;
  let paths = Report.write_figure ~dir fig in
  Alcotest.(check int) "two files" 2 (List.length paths);
  List.iter
    (fun p -> Alcotest.(check bool) "exists" true (Sys.file_exists p))
    paths;
  let table = Failure.table ~pairs:2 ~seed:5 Config.E1 ~p:4 ~ns:[ 4 ] in
  let tpaths = Report.write_table ~dir table in
  List.iter
    (fun p -> Alcotest.(check bool) "table file exists" true (Sys.file_exists p))
    tpaths


(* ------------------------------------------------------------------ *)
(* Robustness                                                          *)
(* ------------------------------------------------------------------ *)

let test_robustness_zero_noise_is_one () =
  let inst = Helpers.random_instance 2024 in
  let mapping = Instance.single_proc_mapping inst in
  Helpers.check_float "no noise: inflation 1" 1.
    (Robustness.inflation ~datasets:100 inst mapping ~noise:0.)

let test_robustness_noise_inflates () =
  let inst = Helpers.random_instance 2025 in
  let mapping = Instance.single_proc_mapping inst in
  let inflated = Robustness.inflation ~datasets:400 inst mapping ~noise:0.4 in
  Alcotest.(check bool) "inflation >= ~1" true (inflated >= 0.97)

let test_robustness_series_shape () =
  let setup = small_setup () in
  let batch = Workload.instances setup in
  let info = List.hd Pipeline_registry.paper in
  let series =
    Robustness.series ~datasets:60 ~noise_levels:[ 0.; 0.2 ] info batch
  in
  Alcotest.(check int) "two points" 2 (Series.length series);
  match Series.points series with
  | [ (x0, y0); (x1, y1) ] ->
    Helpers.check_float "first level" 0. x0;
    Helpers.check_float "second level" 0.2 x1;
    Alcotest.(check bool) "zero-noise inflation ~1" true
      (Float.abs (y0 -. 1.) < 0.05);
    Alcotest.(check bool) "noisy >= clean" true (y1 >= y0 -. 0.05)
  | _ -> Alcotest.fail "unexpected points"

let test_failure_table_max_aggregate () =
  let mean = Failure.table ~pairs:5 ~seed:11 Config.E1 ~p:4 ~ns:[ 6 ] in
  let maxed =
    Failure.table ~aggregate:Failure.Max ~pairs:5 ~seed:11 Config.E1 ~p:4
      ~ns:[ 6 ]
  in
  List.iter2
    (fun (h1, m) (h2, x) ->
      Alcotest.(check string) "same row order" h1 h2;
      List.iter2
        (fun m x -> Alcotest.(check bool) "max >= mean" true (x >= m -. 1e-9))
        m x)
    mean.Failure.rows maxed.Failure.rows


let test_het_campaign_figure () =
  let fig = Het_campaign.figure ~pairs:3 ~sweep_points:4 ~seed:42 ~n:5 3 in
  (* four heuristic curves + the baseline point *)
  Alcotest.(check int) "five series" 5 (List.length fig.Campaign.series);
  let labels = List.map Series.label fig.Campaign.series in
  Alcotest.(check bool) "has het mono" true
    (List.mem "Het split mono, P fix" labels);
  Alcotest.(check bool) "has baseline" true
    (List.mem "balanced chains (baseline)" labels);
  (* instances really are fully heterogeneous *)
  List.iter
    (fun (inst : Instance.t) ->
      Alcotest.(check bool) "fully het" false
        (Platform.is_comm_homogeneous inst.Instance.platform))
    (Het_campaign.instances ~pairs:3 ~seed:42 ~n:5 3)

(* ------------------------------------------------------------------ *)
(* Fault campaign                                                      *)
(* ------------------------------------------------------------------ *)

let test_fault_campaign_shape () =
  let campaign =
    Fault_campaign.run ~crash_counts:[ 2; 0; 1 ] ~datasets:30 (small_setup ())
  in
  Alcotest.(check bool) "some mapped instances" true (campaign.Fault_campaign.instances > 0);
  Alcotest.(check (list int)) "points sorted and unique" [ 0; 1; 2 ]
    (List.map (fun pt -> pt.Fault_campaign.crashes) campaign.Fault_campaign.points);
  let baseline = List.hd campaign.Fault_campaign.points in
  Helpers.check_float "no crashes: full survival" 1. baseline.Fault_campaign.survival;
  Helpers.check_float "no crashes: remap keeps the mapping" 1.
    baseline.Fault_campaign.remap_success;
  Helpers.check_float "no crashes: nothing migrates" 0.
    baseline.Fault_campaign.migrated_fraction;
  Helpers.check_float "no crashes: nominal period" 1.
    baseline.Fault_campaign.degraded_period;
  List.iter
    (fun pt ->
      Alcotest.(check bool) "survival in [0,1]" true
        (pt.Fault_campaign.survival >= 0. && pt.Fault_campaign.survival <= 1.);
      Alcotest.(check bool) "recovery never hurts survival" true
        (pt.Fault_campaign.survival_recovery
        >= pt.Fault_campaign.survival -. 1e-9))
    campaign.Fault_campaign.points

let test_fault_campaign_deterministic () =
  let run () =
    Fault_campaign.run ~crash_counts:[ 0; 2 ] ~datasets:25 (small_setup ())
  in
  Alcotest.(check bool) "same seed, same campaign" true
    (Stdlib.compare (run ()) (run ()) = 0)

let test_fault_campaign_render_and_write () =
  let campaign =
    Fault_campaign.run ~crash_counts:[ 0; 1 ] ~datasets:25 (small_setup ())
  in
  Alcotest.(check bool) "render mentions the header" true
    (Str_find.contains (Fault_campaign.render campaign) "surv+recov");
  let dir = Filename.temp_file "pwfault" "" in
  Sys.remove dir;
  List.iter
    (fun p -> Alcotest.(check bool) "csv written" true (Sys.file_exists p))
    (Fault_campaign.write ~dir campaign)

let test_streaming_campaign_shape () =
  let campaign = Streaming.run ~datasets:25 (small_setup ()) in
  Alcotest.(check bool) "some mapped instances" true
    (campaign.Streaming.instances > 0);
  Alcotest.(check int) "3 shapes x {warm, cold}" 6
    (List.length campaign.Streaming.rows);
  List.iter
    (fun (r : Streaming.row) ->
      Alcotest.(check bool) "completion in [0,1]" true
        (r.Streaming.completion >= 0. && r.Streaming.completion <= 1.);
      Alcotest.(check bool) "volume and reactions non-negative" true
        (r.Streaming.migration_volume >= 0.
        && r.Streaming.reaction_mean >= 0.
        && r.Streaming.reaction_mean <= r.Streaming.reaction_max +. 1e-9);
      Alcotest.(check bool) "at least one mapping epoch" true
        (r.Streaming.segments >= 1.);
      (* Every scenario crashes an enrolled processor, so the cold
         oracle re-solves at least once per run. *)
      if r.Streaming.strategy = "cold" then begin
        Alcotest.(check bool) "cold never repairs" true
          (r.Streaming.repairs = 0.);
        Alcotest.(check bool) "cold solves every migration" true
          (r.Streaming.full_solves > 0.)
      end)
    campaign.Streaming.rows

let test_streaming_campaign_deterministic () =
  let run () = Streaming.run ~datasets:25 (small_setup ()) in
  Alcotest.(check bool) "same seed, same campaign" true
    (Stdlib.compare (run ()) (run ()) = 0)

let test_streaming_campaign_render_and_write () =
  let campaign = Streaming.run ~datasets:20 (small_setup ()) in
  Alcotest.(check bool) "render mentions the header" true
    (Str_find.contains (Streaming.render campaign) "degradation");
  let dir = Filename.temp_file "pwstream" "" in
  Sys.remove dir;
  List.iter
    (fun p -> Alcotest.(check bool) "csv written" true (Sys.file_exists p))
    (Streaming.write ~dir campaign)

let test_het_campaign_deterministic () =
  let a = Het_campaign.instances ~pairs:2 ~seed:1 ~n:4 3 in
  let b = Het_campaign.instances ~pairs:2 ~seed:1 ~n:4 3 in
  List.iter2
    (fun (x : Instance.t) (y : Instance.t) ->
      Alcotest.(check bool) "same" true
        (Application.equal x.Instance.app y.Instance.app
        && Platform.equal x.Instance.platform y.Instance.platform))
    a b

let instances_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun (x : Instance.t) (y : Instance.t) ->
         Application.equal x.Instance.app y.Instance.app
         && Platform.equal x.Instance.platform y.Instance.platform)
       a b

let test_family_names () =
  Alcotest.(check (list string)) "names"
    [ "uniform"; "clustered"; "bottleneck"; "jpeg2000" ]
    (List.map Het_campaign.family_name Het_campaign.families)

let test_family_instances_deterministic () =
  List.iter
    (fun family ->
      let run () =
        Het_campaign.family_instances ~pairs:3 ~seed:7 ~family ~n:5 4
      in
      Alcotest.(check bool)
        (Het_campaign.family_name family ^ " deterministic")
        true
        (instances_equal (run ()) (run ())))
    Het_campaign.families;
  (* distinct families draw from distinct tag streams *)
  let batch family =
    Het_campaign.family_instances ~pairs:3 ~seed:7 ~family ~n:5 4
  in
  Alcotest.(check bool) "families differ" false
    (instances_equal
       (batch Het_campaign.Uniform_links)
       (batch Het_campaign.Clustered))

let test_family_instances_fully_het () =
  List.iter
    (fun family ->
      List.iter
        (fun (inst : Instance.t) ->
          Alcotest.(check bool)
            (Het_campaign.family_name family ^ " fully het")
            false
            (Platform.is_comm_homogeneous inst.Instance.platform))
        (Het_campaign.family_instances ~pairs:3 ~seed:7 ~family ~n:5 4))
    Het_campaign.families

let test_jpeg2000_family_shape () =
  (* the encoder app is fixed — [n] is ignored, the five stages and
     their weights are the same in every batch element *)
  let reference = App_generator.jpeg2000 () in
  Alcotest.(check int) "five stages" 5 (Application.n reference);
  List.iter
    (fun (inst : Instance.t) ->
      Alcotest.(check bool) "same app" true
        (Application.equal inst.Instance.app reference))
    (Het_campaign.family_instances ~pairs:3 ~seed:7
       ~family:Het_campaign.Jpeg2000 ~n:12 4)

let test_threshold_table_shape () =
  let tt = Het_campaign.threshold_table ~pairs:2 ~seed:7 ~n:6 ~p:4 () in
  Alcotest.(check int) "four rows" 4 (List.length tt.Het_campaign.rows);
  Alcotest.(check (list string)) "header"
    ("heuristic" :: List.map Het_campaign.family_name Het_campaign.families)
    (Het_campaign.threshold_table_header tt);
  List.iter
    (fun (name, means) ->
      Alcotest.(check int) (name ^ " four columns") 4 (List.length means);
      List.iter
        (fun m ->
          Alcotest.(check bool) (name ^ " finite positive") true
            (Float.is_finite m && m > 0.))
        means)
    tt.Het_campaign.rows;
  let again = Het_campaign.threshold_table ~pairs:2 ~seed:7 ~n:6 ~p:4 () in
  Alcotest.(check bool) "deterministic" true (Stdlib.compare tt again = 0)

let test_validate_ratios () =
  let v =
    Het_campaign.validate ~runs:4 ~seed:7 ~family:Het_campaign.Clustered ()
  in
  Alcotest.(check int) "runs" 4 v.Het_campaign.runs;
  Alcotest.(check bool) "mean >= 1" true (v.Het_campaign.mean_ratio >= 1.);
  Alcotest.(check bool) "max >= mean" true
    (v.Het_campaign.max_ratio >= v.Het_campaign.mean_ratio)

(* ------------------------------------------------------------------ *)
(* Het platform generators and the JPEG2000 app                        *)
(* ------------------------------------------------------------------ *)

let test_clustered_generator_shape () =
  let rng = Pipeline_util.Rng.create 5 in
  let pf = Platform_generator.clustered rng ~p:6 in
  Alcotest.(check bool) "fully het" false (Platform.is_comm_homogeneous pf);
  Alcotest.(check int) "p" 6 (Platform.p pf);
  for u = 0 to 5 do
    for v = 0 to 5 do
      if u <> v then begin
        let b = Platform.bandwidth pf u v in
        Alcotest.(check bool) "symmetric" true
          (b = Platform.bandwidth pf v u);
        if u mod 2 = v mod 2 then
          Alcotest.(check bool) "intra fat" true (b >= 20. && b <= 30.)
        else Alcotest.(check bool) "inter thin" true (b >= 2. && b <= 5.)
      end
    done
  done

let test_bottleneck_generator_shape () =
  let rng = Pipeline_util.Rng.create 5 in
  let pf = Platform_generator.bottleneck_link rng ~p:6 in
  Alcotest.(check bool) "fully het" false (Platform.is_comm_homogeneous pf);
  (* exactly one victim: all of its links and its I/O run at 1 *)
  let victims =
    List.filter
      (fun u ->
        List.for_all
          (fun v ->
            v = u || Platform.bandwidth pf u v = 1.)
          [ 0; 1; 2; 3; 4; 5 ]
        && Platform.io_bandwidth pf u = 1.)
      [ 0; 1; 2; 3; 4; 5 ]
  in
  Alcotest.(check int) "one victim" 1 (List.length victims);
  let victim = List.hd victims in
  List.iter
    (fun u ->
      if u <> victim then begin
        Alcotest.(check bool) "other io fast" true
          (Platform.io_bandwidth pf u = 15.);
        List.iter
          (fun v ->
            if v <> u && v <> victim then
              let b = Platform.bandwidth pf u v in
              Alcotest.(check bool) "other links in range" true
                (b >= 5. && b <= 15.))
          [ 0; 1; 2; 3; 4; 5 ]
      end)
    [ 0; 1; 2; 3; 4; 5 ]

let test_jpeg2000_app_shape () =
  let app = App_generator.jpeg2000 () in
  Alcotest.(check int) "five stages" 5 (Application.n app);
  (* Tier-1 coding dominates the compute *)
  let works = Application.works app in
  Array.iteri
    (fun i w -> if i <> 3 then
        Alcotest.(check bool) "tier-1 dominates" true (works.(3) > w))
    works;
  (* data volume shrinks monotonically after quantisation (delta_2) *)
  for u = 2 to 4 do
    Alcotest.(check bool) "shrinking stream" true
      (Application.delta app (u + 1) <= Application.delta app u)
  done;
  (* deterministic: two calls agree *)
  Alcotest.(check bool) "fixed" true
    (Application.equal app (App_generator.jpeg2000 ()))

(* ------------------------------------------------------------------ *)
(* Multicore determinism: parallel == sequential, bit-for-bit          *)
(* ------------------------------------------------------------------ *)

let with_jobs jobs f =
  let saved = Pipeline_util.Pool.jobs () in
  Pipeline_util.Pool.set_jobs jobs;
  Fun.protect ~finally:(fun () -> Pipeline_util.Pool.set_jobs saved) f

(* The whole-campaign contract behind `bench --jobs N`: every experiment
   driver must produce bit-identical results at any parallelism degree
   (same pattern as test_sim.ml's fault-free bit-equality harness). *)
let test_campaign_figure_jobs_bit_identical () =
  let run jobs = with_jobs jobs (fun () -> Campaign.figure (small_setup ())) in
  Alcotest.(check bool) "figure jobs=4 = jobs=1" true
    (Stdlib.compare (run 1) (run 4) = 0)

let test_failure_table_jobs_bit_identical () =
  let run jobs =
    with_jobs jobs (fun () ->
        Failure.table ~pairs:3 ~seed:99 Config.E1 ~p:4 ~ns:[ 3; 5 ])
  in
  Alcotest.(check bool) "table jobs=4 = jobs=1" true
    (Stdlib.compare (run 1) (run 4) = 0)

let test_fault_campaign_jobs_bit_identical () =
  let setup = Config.default_setup ~pairs:3 ~seed:5 Config.E2 ~n:5 ~p:4 in
  let run jobs =
    with_jobs jobs (fun () -> Fault_campaign.run ~datasets:30 setup)
  in
  Alcotest.(check bool) "fault campaign jobs=4 = jobs=1" true
    (Stdlib.compare (run 1) (run 4) = 0)

let test_streaming_campaign_jobs_bit_identical () =
  let setup = Config.default_setup ~pairs:3 ~seed:5 Config.E2 ~n:5 ~p:4 in
  let run jobs = with_jobs jobs (fun () -> Streaming.run ~datasets:25 setup) in
  Alcotest.(check bool) "streaming campaign jobs=4 = jobs=1" true
    (Stdlib.compare (run 1) (run 4) = 0)

let test_het_campaign_jobs_bit_identical () =
  let run jobs =
    with_jobs jobs (fun () ->
        Het_campaign.figure ~pairs:3 ~sweep_points:4 ~seed:11 ~n:5 4)
  in
  Alcotest.(check bool) "het figure jobs=4 = jobs=1" true
    (Stdlib.compare (run 1) (run 4) = 0)

let test_het_threshold_table_jobs_bit_identical () =
  let run jobs =
    with_jobs jobs (fun () ->
        Het_campaign.threshold_table ~pairs:2 ~seed:7 ~n:6 ~p:4 ())
  in
  Alcotest.(check bool) "het thresholds jobs=4 = jobs=1" true
    (Stdlib.compare (run 1) (run 4) = 0)

let test_robustness_jobs_bit_identical () =
  let setup = small_setup ~experiment:Config.E2 () in
  let batch = Workload.instances setup in
  let info =
    match Pipeline_registry.find "h1-sp-mono-p" with
    | Some i -> i
    | None -> Alcotest.fail "H1 not registered"
  in
  let run jobs =
    with_jobs jobs (fun () ->
        Robustness.series ~datasets:40 ~noise_levels:[ 0.; 0.2 ] info batch)
  in
  Alcotest.(check bool) "robustness jobs=4 = jobs=1" true
    (Stdlib.compare (run 1) (run 4) = 0)

(* ------------------------------------------------------------------ *)
(* Scaling (E6 web-scale ladder)                                       *)
(* ------------------------------------------------------------------ *)

let test_scaling_ladder_sizes () =
  let top l = List.nth l (List.length l - 1) in
  Alcotest.(check (pair int int)) "full tops at web scale" (50_000, 1_000)
    (top (Scaling.ladder `Full));
  Alcotest.(check bool) "smoke stays tiny" true
    (List.for_all (fun (n, p) -> n <= 200 && p <= 16) (Scaling.ladder `Smoke))

let test_scaling_instance_shape () =
  let inst = Scaling.instance ~seed:2007 ~n:50 ~p:4 in
  let app = inst.Instance.app in
  Alcotest.(check int) "n" 50 (Application.n app);
  Alcotest.(check int) "p" 4 (Platform.p inst.Instance.platform);
  (* E6's uniform deltas are the precondition of the relaxation. *)
  Alcotest.(check bool) "uniform deltas" true
    (let d0 = Application.delta app 0 in
     Array.for_all (( = ) d0) (Application.deltas app))

let test_scaling_run_deterministic () =
  let run () = Scaling.run ~seed:2007 (Scaling.ladder `Smoke) in
  Alcotest.(check bool) "same seed, same measurements" true
    (Stdlib.compare (run ()) (run ()) = 0);
  let csv = Scaling.to_csv (run ()) in
  Alcotest.(check bool) "csv header" true
    (Str_find.contains csv "nicol bottleneck")

(* Oracle: when every processor runs at the same speed, the all-fastest
   relaxation IS the homogeneous problem, so Nicol through the cycle map
   must land exactly on Pipeline_optimal.Homogeneous's optimum. *)
let prop_exact_relaxed_matches_homogeneous_oracle =
  Helpers.qtest ~count:80 "exact_relaxed_min_period = Homogeneous oracle"
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let rng = Pipeline_util.Rng.create seed in
      let n = 1 + Pipeline_util.Rng.int rng 10 in
      let p = 1 + Pipeline_util.Rng.int rng 4 in
      let delta = float_of_int (Pipeline_util.Rng.int_in rng 0 30) in
      let speed = float_of_int (Pipeline_util.Rng.int_in rng 1 10) in
      let works =
        Array.init n (fun _ ->
            float_of_int (Pipeline_util.Rng.int_in rng 1 20))
      in
      let app = Application.make ~deltas:(Array.make (n + 1) delta) works in
      let platform =
        Platform.comm_homogeneous ~bandwidth:10. (Array.make p speed)
      in
      let inst = Instance.make app platform in
      let period, intervals, _bottleneck =
        Scaling.exact_relaxed_min_period (Cost.make app platform) ~p
      in
      period
      = (Pipeline_optimal.Homogeneous.min_period inst)
          .Pipeline_core.Solution.period
      && intervals >= 1
      && intervals <= p)

let () =
  Alcotest.run "experiments"
    [
      ( "config",
        [
          Alcotest.test_case "names" `Quick test_config_names;
          Alcotest.test_case "specs" `Quick test_config_specs;
          Alcotest.test_case "paper stage counts" `Quick test_config_paper_stage_counts;
          Alcotest.test_case "setup" `Quick test_config_setup;
        ] );
      ( "workload",
        [
          Alcotest.test_case "deterministic" `Quick test_workload_deterministic;
          Alcotest.test_case "batch shape" `Quick test_workload_batch_shape;
          Alcotest.test_case "instances differ" `Quick test_workload_instances_differ;
          Alcotest.test_case "out of range" `Quick test_workload_out_of_range;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "lower bound valid" `Quick test_period_lower_bound_valid;
          Alcotest.test_case "bounds ordered" `Quick test_sweep_bounds_ordered;
          Alcotest.test_case "grid" `Quick test_sweep_grid;
          Alcotest.test_case "period-fixed series" `Quick test_sweep_run_period_fixed;
          Alcotest.test_case "latency-fixed series" `Quick test_sweep_run_latency_fixed;
          Alcotest.test_case "success rate extremes" `Quick test_success_rate_extremes;
        ] );
      ( "failure",
        [
          Alcotest.test_case "latency boundary = L_opt" `Quick
            test_latency_fixed_threshold_is_optimal_latency;
          Alcotest.test_case "brackets behaviour" `Quick
            test_failure_threshold_brackets_behaviour;
          Alcotest.test_case "table shape" `Quick test_failure_table_shape;
          Alcotest.test_case "grows with n" `Quick test_failure_thresholds_grow_with_n;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "zero noise" `Quick test_robustness_zero_noise_is_one;
          Alcotest.test_case "noise inflates" `Quick test_robustness_noise_inflates;
          Alcotest.test_case "series shape" `Quick test_robustness_series_shape;
          Alcotest.test_case "max aggregate" `Quick test_failure_table_max_aggregate;
        ] );
      ( "fault-campaign",
        [
          Alcotest.test_case "shape" `Quick test_fault_campaign_shape;
          Alcotest.test_case "deterministic" `Quick
            test_fault_campaign_deterministic;
          Alcotest.test_case "render and write" `Quick
            test_fault_campaign_render_and_write;
        ] );
      ( "streaming-campaign",
        [
          Alcotest.test_case "shape" `Quick test_streaming_campaign_shape;
          Alcotest.test_case "deterministic" `Quick
            test_streaming_campaign_deterministic;
          Alcotest.test_case "render and write" `Quick
            test_streaming_campaign_render_and_write;
        ] );
      ( "het-campaign",
        [
          Alcotest.test_case "figure" `Quick test_het_campaign_figure;
          Alcotest.test_case "deterministic" `Quick test_het_campaign_deterministic;
          Alcotest.test_case "family names" `Quick test_family_names;
          Alcotest.test_case "family instances deterministic" `Quick
            test_family_instances_deterministic;
          Alcotest.test_case "family instances fully het" `Quick
            test_family_instances_fully_het;
          Alcotest.test_case "jpeg2000 family shape" `Quick
            test_jpeg2000_family_shape;
          Alcotest.test_case "threshold table shape" `Quick
            test_threshold_table_shape;
          Alcotest.test_case "validate ratios" `Quick test_validate_ratios;
        ] );
      ( "het-generators",
        [
          Alcotest.test_case "clustered shape" `Quick
            test_clustered_generator_shape;
          Alcotest.test_case "bottleneck shape" `Quick
            test_bottleneck_generator_shape;
          Alcotest.test_case "jpeg2000 app shape" `Quick
            test_jpeg2000_app_shape;
        ] );
      ( "scaling",
        [
          Alcotest.test_case "ladder sizes" `Quick test_scaling_ladder_sizes;
          Alcotest.test_case "instance shape" `Quick test_scaling_instance_shape;
          Alcotest.test_case "deterministic" `Quick test_scaling_run_deterministic;
          prop_exact_relaxed_matches_homogeneous_oracle;
        ] );
      ( "multicore-determinism",
        [
          Alcotest.test_case "figure bit-identical" `Quick
            test_campaign_figure_jobs_bit_identical;
          Alcotest.test_case "table1 bit-identical" `Quick
            test_failure_table_jobs_bit_identical;
          Alcotest.test_case "fault campaign bit-identical" `Quick
            test_fault_campaign_jobs_bit_identical;
          Alcotest.test_case "streaming campaign bit-identical" `Quick
            test_streaming_campaign_jobs_bit_identical;
          Alcotest.test_case "het campaign bit-identical" `Quick
            test_het_campaign_jobs_bit_identical;
          Alcotest.test_case "het threshold table bit-identical" `Quick
            test_het_threshold_table_jobs_bit_identical;
          Alcotest.test_case "robustness bit-identical" `Quick
            test_robustness_jobs_bit_identical;
        ] );
      ( "campaign-report",
        [
          Alcotest.test_case "paper figures" `Quick test_paper_figures_catalogue;
          Alcotest.test_case "figure" `Quick test_campaign_figure;
          Alcotest.test_case "unknown figure" `Quick test_run_paper_figure_unknown;
          Alcotest.test_case "slug" `Quick test_report_slug;
          Alcotest.test_case "render and write" `Quick test_report_renders_and_writes;
        ] );
    ]
