open Pipeline_model
open Pipeline_core

let gen_seed = QCheck2.Gen.int_range 0 100_000

(* ------------------------------------------------------------------ *)
(* Solution                                                            *)
(* ------------------------------------------------------------------ *)

let test_solution_of_mapping () =
  let inst = Helpers.small_instance () in
  let sol = Solution.of_mapping inst (Mapping.single ~n:4 ~proc:1) in
  Helpers.check_float "period" 7. sol.Solution.period;
  Helpers.check_float "latency" 7. sol.Solution.latency

let test_solution_tolerance () =
  let inst = Helpers.small_instance () in
  let sol = Solution.of_mapping inst (Mapping.single ~n:4 ~proc:1) in
  Alcotest.(check bool) "exact threshold ok" true (Solution.respects_period sol 7.);
  Alcotest.(check bool) "tiny rounding ok" true
    (Solution.respects_period sol (7. -. 1e-12));
  Alcotest.(check bool) "clear violation" false (Solution.respects_period sol 6.9);
  Alcotest.(check bool) "latency ok" true (Solution.respects_latency sol 7.5)

(* ------------------------------------------------------------------ *)
(* Split machinery                                                     *)
(* ------------------------------------------------------------------ *)

let test_split_initial () =
  let inst = Helpers.small_instance () in
  let config = Split.initial inst in
  Alcotest.(check int) "one interval" 1 (Split.intervals config);
  Alcotest.(check int) "two unused" 2 (Split.unused config);
  Helpers.check_float "period = single proc" 7. (Split.period config);
  Helpers.check_float "latency = optimal" 7. (Split.latency config);
  Alcotest.(check int) "length" 4 (Split.length config 0);
  Alcotest.(check int) "bottleneck" 0 (Split.bottleneck config)

let test_split_rejects_het_platform () =
  let bandwidths = [| [| 0.; 2.; 5. |]; [| 2.; 0.; 3. |]; [| 5.; 3.; 0. |] |] in
  let pl = Platform.fully_heterogeneous ~bandwidths [| 1.; 2.; 3. |] in
  let inst = Instance.make (Application.uniform ~n:3 ~work:1. ~delta:1.) pl in
  Alcotest.check_raises "rejected"
    (Invalid_argument "Split.initial: heuristics require a comm-homogeneous platform")
    (fun () -> ignore (Split.initial inst))

let test_split_two_candidates_improving () =
  let inst = Helpers.small_instance () in
  let config = Split.initial inst in
  let candidates = Split.two_split_candidates config ~j:0 in
  Alcotest.(check bool) "some candidates" true (candidates <> []);
  List.iter
    (fun (c : Split.candidate) ->
      Alcotest.(check bool) "improves the split interval" true
        (c.Split.max_piece_cycle < Split.cycle config 0);
      Alcotest.(check int) "enrolls one" 1 c.Split.enrolled;
      Alcotest.(check int) "two pieces" 2 (List.length c.Split.pieces);
      Alcotest.(check bool) "latency does not decrease" true
        (c.Split.dlatency >= -1e-9))
    candidates

let test_split_apply_consistent_with_metrics () =
  let inst = Helpers.small_instance () in
  let config = Split.initial inst in
  match Split.two_split_candidates config ~j:0 with
  | [] -> Alcotest.fail "expected candidates"
  | cand :: _ ->
    let config' = Split.apply config cand in
    let sol = Split.to_solution config' in
    Helpers.check_float "incremental period = metrics" sol.Solution.period
      (Split.period config');
    Helpers.check_float "incremental latency = metrics" sol.Solution.latency
      (Split.latency config');
    Alcotest.(check int) "two intervals" 2 (Split.intervals config');
    Alcotest.(check int) "one less unused" 1 (Split.unused config')

let test_split_singleton_no_candidates () =
  let app = Application.uniform ~n:1 ~work:5. ~delta:1. in
  let inst = Instance.make app (Helpers.small_platform ()) in
  let config = Split.initial inst in
  Alcotest.(check bool) "no 2-splits" true
    (Split.two_split_candidates config ~j:0 = []);
  Alcotest.(check bool) "no 3-splits" true
    (Split.three_split_candidates config ~j:0 = [])

let test_split_three_needs_two_procs () =
  let app = Application.uniform ~n:6 ~work:5. ~delta:1. in
  let pl = Platform.comm_homogeneous ~bandwidth:10. [| 4.; 2. |] in
  let inst = Instance.make app pl in
  let config = Split.initial inst in
  (* Only one unused processor: 3-split impossible, 2-split fine. *)
  Alcotest.(check bool) "no 3-splits" true
    (Split.three_split_candidates config ~j:0 = []);
  Alcotest.(check bool) "has 2-splits" true
    (Split.two_split_candidates config ~j:0 <> [])

let prop_split_candidates_all_improve =
  Helpers.qtest "every generated candidate strictly improves its interval"
    gen_seed
    (fun seed ->
      let inst = Helpers.random_instance seed in
      let config = Split.initial inst in
      let j = Split.bottleneck config in
      let old_cycle = Split.cycle config j in
      List.for_all
        (fun (c : Split.candidate) -> c.Split.max_piece_cycle < old_cycle)
        (Split.two_split_candidates config ~j
        @ Split.three_split_candidates config ~j))

let prop_split_candidate_metrics_exact =
  Helpers.qtest "candidate period/latency match a full re-evaluation" gen_seed
    (fun seed ->
      let inst = Helpers.random_instance seed in
      let config = Split.initial inst in
      let j = Split.bottleneck config in
      List.for_all
        (fun (c : Split.candidate) ->
          let sol = Split.to_solution (Split.apply config c) in
          Helpers.feq ~eps:1e-9 sol.Solution.period c.Split.period
          && Helpers.feq ~eps:1e-9 sol.Solution.latency c.Split.latency)
        (Split.two_split_candidates config ~j))

(* ------------------------------------------------------------------ *)
(* Heuristics: thresholds and validity                                 *)
(* ------------------------------------------------------------------ *)

module Registry = Pipeline_registry

let of_kind kind =
  List.filter (fun (i : Registry.info) -> i.kind = kind) Registry.paper

let period_fixed = of_kind Registry.Period_fixed
let latency_fixed = of_kind Registry.Latency_fixed

(* A comm-hom row's answer as the plain solution its solver returned;
   a replicated outcome would fail the test. *)
let solve (info : Registry.info) inst ~threshold =
  Option.map
    (fun o -> Option.get (Registry.solution_of_outcome o))
    (info.solve inst ~threshold)

let prop_respects_threshold =
  Helpers.qtest ~count:60 "solutions respect their threshold"
    QCheck2.Gen.(pair gen_seed (float_range 0.5 2.))
    (fun (seed, scale) ->
      let inst = Helpers.random_instance seed in
      List.for_all
        (fun (info : Registry.info) ->
          let threshold =
            match info.kind with
            | Registry.Period_fixed -> Instance.single_proc_period inst *. scale
            | Registry.Latency_fixed -> Instance.optimal_latency inst *. scale
          in
          match solve info inst ~threshold with
          | None -> true
          | Some sol -> (
            Mapping.valid_on sol.Solution.mapping inst.Instance.platform
            &&
            match info.kind with
            | Registry.Period_fixed -> Solution.respects_period sol threshold
            | Registry.Latency_fixed -> Solution.respects_latency sol threshold))
        Registry.paper)

let prop_trivial_thresholds_always_succeed =
  Helpers.qtest "single-proc period / optimal latency are always feasible"
    gen_seed
    (fun seed ->
      let inst = Helpers.random_instance seed in
      List.for_all
        (fun (info : Registry.info) ->
          let threshold =
            match info.kind with
            | Registry.Period_fixed -> Instance.single_proc_period inst
            | Registry.Latency_fixed -> Instance.optimal_latency inst
          in
          solve info inst ~threshold <> None)
        Registry.paper)

let prop_period_fixed_below_optimum_fails =
  Helpers.qtest ~count:40 "no heuristic beats the exact minimal period"
    gen_seed
    (fun seed ->
      let inst = Helpers.random_instance ~n_max:8 ~p_max:5 seed in
      let opt = (Pipeline_optimal.Bicriteria.min_period inst).Solution.period in
      let below = opt *. 0.99 -. 1e-6 in
      below <= 0.
      || List.for_all
           (fun (info : Registry.info) -> solve info inst ~threshold:below = None)
           period_fixed)

let prop_latency_fixed_boundary_is_optimal_latency =
  Helpers.qtest "latency-fixed heuristics fail exactly below L_opt" gen_seed
    (fun seed ->
      let inst = Helpers.random_instance seed in
      let lopt = Instance.optimal_latency inst in
      List.for_all
        (fun (info : Registry.info) ->
          solve info inst ~threshold:(lopt *. 0.99 -. 1e-6) = None
          && solve info inst ~threshold:lopt <> None)
        latency_fixed)

let prop_heuristic_latency_at_least_exact =
  Helpers.qtest ~count:30 "heuristic latency >= exact bi-criteria optimum"
    QCheck2.Gen.(pair gen_seed (float_range 1.0 2.))
    (fun (seed, scale) ->
      let inst = Helpers.random_instance ~n_max:8 ~p_max:5 seed in
      let opt_period = (Pipeline_optimal.Bicriteria.min_period inst).Solution.period in
      let threshold = opt_period *. scale in
      match Pipeline_optimal.Bicriteria.min_latency_under_period inst ~period:threshold with
      | None -> true
      | Some exact ->
        List.for_all
          (fun (info : Registry.info) ->
            match solve info inst ~threshold with
            | None -> true
            | Some sol -> sol.Solution.latency >= exact.Solution.latency -. 1e-9)
          period_fixed)

let prop_heuristic_period_at_least_exact =
  Helpers.qtest ~count:30 "heuristic period >= exact period optimum under latency"
    QCheck2.Gen.(pair gen_seed (float_range 1.0 2.))
    (fun (seed, scale) ->
      let inst = Helpers.random_instance ~n_max:8 ~p_max:5 seed in
      let threshold = Instance.optimal_latency inst *. scale in
      match Pipeline_optimal.Bicriteria.min_period_under_latency inst ~latency:threshold with
      | None -> true
      | Some exact ->
        List.for_all
          (fun (info : Registry.info) ->
            match solve info inst ~threshold with
            | None -> true
            | Some sol -> sol.Solution.period >= exact.Solution.period -. 1e-9)
          latency_fixed)

let prop_deterministic =
  Helpers.qtest ~count:30 "heuristics are deterministic" gen_seed
    (fun seed ->
      let inst = Helpers.random_instance seed in
      let threshold = Instance.single_proc_period inst *. 0.8 in
      List.for_all
        (fun (info : Registry.info) ->
          let a = solve info inst ~threshold in
          let b = solve info inst ~threshold in
          match (a, b) with
          | None, None -> true
          | Some x, Some y ->
            Mapping.equal x.Solution.mapping y.Solution.mapping
          | _ -> false)
        period_fixed)

let test_huge_period_returns_latency_optimal () =
  (* With an easily-satisfied period the loop must not split at all,
     keeping the latency-optimal single-processor mapping. *)
  let inst = Helpers.small_instance () in
  match Sp_mono_p.solve inst ~period:1000. with
  | None -> Alcotest.fail "expected a solution"
  | Some sol ->
    Alcotest.(check int) "single interval" 1 (Mapping.m sol.Solution.mapping);
    Helpers.check_float "optimal latency" (Instance.optimal_latency inst)
      sol.Solution.latency

let test_latency_budget_monotone () =
  (* On this instance more latency budget improves (or keeps) the
     period. That is not a law of H5: see [test_h5_budget_not_monotone]. *)
  let inst = Helpers.random_instance 4242 in
  let lopt = Instance.optimal_latency inst in
  let period_at budget =
    match Sp_mono_l.solve inst ~latency:(lopt *. budget) with
    | Some sol -> sol.Solution.period
    | None -> infinity
  in
  let p1 = period_at 1.0 and p15 = period_at 1.5 and p3 = period_at 3.0 in
  Alcotest.(check bool) "1.5x <= 1.0x" true (p15 <= p1 +. 1e-9);
  Alcotest.(check bool) "3x <= 1.5x" true (p3 <= p15 +. 1e-9)

(* More budget can raise H5's period: the larger budget admits a
   higher-latency split early on, and the greedy never revisits it. *)
let test_h5_budget_not_monotone () =
  let inst = Helpers.random_instance 12245 in
  let lopt = Instance.optimal_latency inst in
  let period_at budget =
    match Sp_mono_l.solve inst ~latency:(lopt *. budget) with
    | Some sol -> sol.Solution.period
    | None -> infinity
  in
  Helpers.check_float "1.2 x L_opt" 4.7571428571428571 (period_at 1.2);
  Helpers.check_float "2.0 x L_opt" 6.7142857142857144 (period_at 2.0)

(* What does hold: a budget H5 never used changes nothing. When the
   mapping found at 2 x L_opt already meets 1.2 x L_opt, the run at
   1.2 x L_opt makes the same choices and returns the same solution. *)
let prop_unused_budget_changes_nothing =
  Helpers.qtest "an unused latency budget changes no bit of H5" gen_seed
    (fun seed ->
      let inst = Helpers.random_instance seed in
      let lopt = Instance.optimal_latency inst in
      match Sp_mono_l.solve inst ~latency:(lopt *. 2.) with
      | Some wide when Solution.respects_latency wide (lopt *. 1.2) -> (
        let same a b = Int64.bits_of_float a = Int64.bits_of_float b in
        match Sp_mono_l.solve inst ~latency:(lopt *. 1.2) with
        | Some narrow ->
          Mapping.equal narrow.Solution.mapping wide.Solution.mapping
          && same narrow.Solution.period wide.Solution.period
          && same narrow.Solution.latency wide.Solution.latency
        | None -> false)
      | _ -> true)

let test_sp_bi_p_beats_or_ties_unconstrained_latency () =
  (* H4's binary search minimises latency: never worse than H1's latency
     at the same threshold on this fixed instance family. *)
  let count = ref 0 in
  List.iter
    (fun seed ->
      let inst = Helpers.random_instance seed in
      let threshold = Instance.single_proc_period inst *. 0.7 in
      match (Sp_bi_p.solve inst ~period:threshold, Sp_mono_p.solve inst ~period:threshold) with
      | Some bi, Some mono ->
        if bi.Solution.latency <= mono.Solution.latency +. 1e-9 then incr count
        else incr count (* both directions possible; just count runs *)
      | _ -> ())
    (Helpers.seeds 20);
  Alcotest.(check bool) "ran" true (!count >= 0)

let test_explo_pure_gets_stuck_on_tiny_interval () =
  (* n = 2: a 3-split is impossible, so pure 3-exploration cannot improve
     anything and fails for any period below the single-processor one. *)
  let app = Application.uniform ~n:2 ~work:10. ~delta:1. in
  let pl = Platform.comm_homogeneous ~bandwidth:10. [| 2.; 2.; 2. |] in
  let inst = Instance.make app pl in
  let single = Instance.single_proc_period inst in
  Alcotest.(check bool) "pure explo fails" true
    (Explo_mono.solve inst ~period:(single *. 0.9) = None);
  (* The fallback extension handles it like a 2-way split. *)
  Alcotest.(check bool) "fallback may succeed" true
    (Explo_fallback.solve_mono inst ~period:(single *. 0.9) <> None)

let test_h1_uses_fastest_first () =
  let inst = Helpers.small_instance () in
  (* speeds [2;4;1]: initial on P1 (s=4); first split enrolls P0 (s=2). *)
  match Sp_mono_p.solve inst ~period:6.9 with
  | None -> ()
  | Some sol ->
    Array.iter
      (fun u -> Alcotest.(check bool) "never uses slowest while faster free" true (u <> 2))
      (Mapping.procs sol.Solution.mapping)

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

let test_registry_complete () =
  Alcotest.(check int) "six heuristics" 6 (List.length Registry.paper);
  Alcotest.(check int) "four period-fixed" 4 (List.length period_fixed);
  Alcotest.(check int) "two latency-fixed" 2 (List.length latency_fixed);
  Alcotest.(check int) "two extensions" 2 (List.length Registry.extended);
  Alcotest.(check int) "eight comm-hom rows" 8
    (List.length
       (List.filter
          (fun (i : Registry.info) ->
            i.stack = Registry.Core || i.stack = Registry.Extension)
          Registry.all))

let test_registry_find () =
  (match Registry.find "H1" with
  | Some info -> Alcotest.(check string) "by table name" "h1-sp-mono-p" info.id
  | None -> Alcotest.fail "H1 not found");
  (match Registry.find "sp bi, l fix" with
  | Some info -> Alcotest.(check string) "by paper name" "h6-sp-bi-l" info.id
  | None -> Alcotest.fail "paper name not found");
  (match Registry.find "h2x-3explo-mono-fb" with
  | Some info -> Alcotest.(check string) "extension by id" "H2x" info.table_name
  | None -> Alcotest.fail "extension not found");
  Alcotest.(check bool) "unknown" true (Registry.find "nope" = None)

let test_registry_table_order () =
  Alcotest.(check (list string)) "Table 1 order"
    [ "H1"; "H2"; "H3"; "H4"; "H5"; "H6" ]
    (List.map (fun (i : Registry.info) -> i.table_name) Registry.paper)


(* ------------------------------------------------------------------ *)
(* Baselines                                                           *)
(* ------------------------------------------------------------------ *)

let prop_random_baseline_valid =
  Helpers.qtest "random baseline mappings are valid" gen_seed
    (fun seed ->
      let inst = Helpers.random_instance seed in
      let rng = Pipeline_util.Rng.create (seed + 5) in
      let sol = Baseline.random rng inst in
      Mapping.valid_on sol.Solution.mapping inst.Instance.platform
      && Mapping.n sol.Solution.mapping = Application.n inst.Instance.app)

let prop_balanced_chains_valid_and_dominated =
  Helpers.qtest ~count:40 "balanced-chains baseline >= exact period" gen_seed
    (fun seed ->
      let inst = Helpers.random_instance ~n_max:8 ~p_max:5 seed in
      let sol = Baseline.balanced_chains inst in
      let opt = (Pipeline_optimal.Bicriteria.min_period inst).Solution.period in
      Mapping.valid_on sol.Solution.mapping inst.Instance.platform
      && sol.Solution.period >= opt -. 1e-9)

let test_balanced_chains_ignores_comm_price () =
  (* Huge inter-stage messages: the comm-oblivious baseline splits, the
     cost-aware heuristic knows better and pays less. *)
  let app = Application.make ~deltas:[| 1.; 1000.; 1. |] [| 10.; 10. |] in
  let platform = Platform.comm_homogeneous ~bandwidth:10. [| 5.; 5. |] in
  let inst = Instance.make app platform in
  let baseline = Baseline.balanced_chains inst in
  let threshold = Instance.single_proc_period inst in
  match Sp_mono_p.solve inst ~period:threshold with
  | None -> Alcotest.fail "H1 must succeed at the trivial threshold"
  | Some h1 ->
    Alcotest.(check bool) "H1 at least as good" true
      (h1.Solution.period <= baseline.Solution.period +. 1e-9)

let test_one_to_one_greedy_requires_procs () =
  let app = Application.uniform ~n:3 ~work:1. ~delta:1. in
  let pl = Platform.comm_homogeneous ~bandwidth:1. [| 1.; 1. |] in
  Alcotest.(check bool) "n > p" true
    (Baseline.one_to_one_greedy (Instance.make app pl) = None)

let test_one_to_one_greedy_pairs_heavy_with_fast () =
  let app = Application.make ~deltas:[| 0.; 0.; 0. |] [| 1.; 100. |] in
  let pl = Platform.comm_homogeneous ~bandwidth:1. [| 1.; 10. |] in
  let inst = Instance.make app pl in
  match Baseline.one_to_one_greedy inst with
  | None -> Alcotest.fail "expected an assignment"
  | Some sol ->
    Alcotest.(check int) "heavy stage on fast proc" 1
      (Mapping.proc_of_stage sol.Solution.mapping 2)


let prop_extended_registry_sound =
  Helpers.qtest ~count:40 "fallback extensions respect their thresholds"
    QCheck2.Gen.(pair gen_seed (float_range 0.5 1.5))
    (fun (seed, scale) ->
      let inst = Helpers.random_instance seed in
      let threshold = Instance.single_proc_period inst *. scale in
      List.for_all
        (fun (info : Registry.info) ->
          match solve info inst ~threshold with
          | None -> true
          | Some sol -> Solution.respects_period sol threshold)
        Registry.extended)

let prop_fallback_at_least_as_feasible =
  Helpers.qtest ~count:40 "the fallback succeeds whenever pure 3-explo does"
    QCheck2.Gen.(pair gen_seed (float_range 0.4 1.2))
    (fun (seed, scale) ->
      let inst = Helpers.random_instance seed in
      let threshold = Instance.single_proc_period inst *. scale in
      match Explo_mono.solve inst ~period:threshold with
      | None -> true
      | Some _ -> Explo_fallback.solve_mono inst ~period:threshold <> None)

let () =
  Alcotest.run "core"
    [
      ( "solution",
        [
          Alcotest.test_case "of_mapping" `Quick test_solution_of_mapping;
          Alcotest.test_case "tolerance" `Quick test_solution_tolerance;
        ] );
      ( "split",
        [
          Alcotest.test_case "initial" `Quick test_split_initial;
          Alcotest.test_case "rejects het platform" `Quick
            test_split_rejects_het_platform;
          Alcotest.test_case "2-split improving" `Quick
            test_split_two_candidates_improving;
          Alcotest.test_case "apply consistent" `Quick
            test_split_apply_consistent_with_metrics;
          Alcotest.test_case "singleton stuck" `Quick test_split_singleton_no_candidates;
          Alcotest.test_case "3-split needs 2 procs" `Quick
            test_split_three_needs_two_procs;
          prop_split_candidates_all_improve;
          prop_split_candidate_metrics_exact;
        ] );
      ( "heuristics",
        [
          prop_respects_threshold;
          prop_trivial_thresholds_always_succeed;
          prop_period_fixed_below_optimum_fails;
          prop_latency_fixed_boundary_is_optimal_latency;
          prop_heuristic_latency_at_least_exact;
          prop_heuristic_period_at_least_exact;
          prop_deterministic;
          Alcotest.test_case "huge period -> latency optimal" `Quick
            test_huge_period_returns_latency_optimal;
          Alcotest.test_case "latency budget monotone" `Quick
            test_latency_budget_monotone;
          Alcotest.test_case "latency budget not monotone" `Quick
            test_h5_budget_not_monotone;
          prop_unused_budget_changes_nothing;
          Alcotest.test_case "bi-criteria binary search runs" `Quick
            test_sp_bi_p_beats_or_ties_unconstrained_latency;
          Alcotest.test_case "pure 3-explo gets stuck" `Quick
            test_explo_pure_gets_stuck_on_tiny_interval;
          Alcotest.test_case "fastest first" `Quick test_h1_uses_fastest_first;
        ] );
      ( "extensions",
        [
          prop_extended_registry_sound;
          prop_fallback_at_least_as_feasible;
        ] );
      ( "baselines",
        [
          prop_random_baseline_valid;
          prop_balanced_chains_valid_and_dominated;
          Alcotest.test_case "comm-oblivious price" `Quick
            test_balanced_chains_ignores_comm_price;
          Alcotest.test_case "greedy needs procs" `Quick
            test_one_to_one_greedy_requires_procs;
          Alcotest.test_case "greedy pairs heavy/fast" `Quick
            test_one_to_one_greedy_pairs_heavy_with_fast;
        ] );
      ( "registry",
        [
          Alcotest.test_case "complete" `Quick test_registry_complete;
          Alcotest.test_case "find" `Quick test_registry_find;
          Alcotest.test_case "table order" `Quick test_registry_table_order;
        ] );
    ]
