open Pipeline_model
open Pipeline_ft
module Rng = Pipeline_util.Rng
module DM = Deal_mapping

let gen_seed = QCheck2.Gen.int_range 0 100_000

(* Tiny instances so the exhaustive tri-criteria oracle stays cheap. *)
let tiny_instance seed = Helpers.random_instance ~n_max:4 ~p_max:3 seed

let random_reliability rng p =
  Reliability.make
    (Array.init p (fun _ -> float_of_int (Rng.int_in rng 0 40) /. 100.))

(* ------------------------------------------------------------------ *)
(* Reliability model                                                   *)
(* ------------------------------------------------------------------ *)

let test_reliability_basics () =
  let rel = Reliability.make [| 0.1; 0.5; 0. |] in
  Alcotest.(check int) "p" 3 (Reliability.p rel);
  Helpers.check_float "failure" 0.5 (Reliability.failure rel 1);
  Helpers.check_float "success" 0.9 (Reliability.success rel 0);
  Helpers.check_float "group failure" 0.05 (Reliability.group_failure rel [ 0; 1 ]);
  Helpers.check_float "group success" 0.45 (Reliability.group_success rel [ 0; 1 ]);
  Helpers.check_float "empty group" 1. (Reliability.group_failure rel []);
  let mapping = Mapping.of_cuts ~n:4 ~cuts:[ 2 ] ~procs:[ 0; 1 ] in
  (* 1 - 0.9 * 0.5 = 0.55 *)
  Helpers.check_float "mapping failure" 0.55 (Reliability.mapping_failure rel mapping);
  Helpers.check_float "mapping success" 0.45 (Reliability.mapping_success rel mapping)

let test_reliability_rejects () =
  let rejects name f =
    Alcotest.(check bool) name true
      (try
         ignore (f ());
         false
       with Invalid_argument _ -> true)
  in
  rejects "negative prob" (fun () -> Reliability.make [| -0.1 |]);
  rejects "prob above one" (fun () -> Reliability.make [| 1.1 |]);
  rejects "nan prob" (fun () -> Reliability.make [| nan |]);
  rejects "empty uniform" (fun () -> Reliability.uniform ~p:0 0.1);
  rejects "proc out of range" (fun () ->
      Reliability.failure (Reliability.make [| 0.1 |]) 1);
  rejects "mapping out of range" (fun () ->
      Reliability.mapping_failure
        (Reliability.make [| 0.1 |])
        (Mapping.single ~n:2 ~proc:3))

let prop_deal_agrees_with_plain =
  Helpers.qtest ~count:100 "deal reliability of a plain mapping = model"
    gen_seed (fun seed ->
      let inst = Helpers.random_instance ~n_max:6 ~p_max:5 seed in
      let rng = Rng.create (seed + 13) in
      let rel = random_reliability rng (Platform.p inst.platform) in
      let mapping = Instance.single_proc_mapping inst in
      (* Embedding a plain mapping and evaluating the deal failure
         matches the plain model up to rounding. *)
      let via_deal = Cost.failure rel (DM.of_mapping mapping) in
      let direct = Reliability.mapping_failure rel mapping in
      Float.abs (via_deal -. direct) <= 1e-12 *. Float.max 1. (Float.abs direct))

let test_deal_replication_reduces_failure () =
  let rel = Reliability.make [| 0.2; 0.3; 0.4 |] in
  let plain = DM.of_mapping (Mapping.single ~n:3 ~proc:0) in
  let replicated = DM.replicate plain ~j:0 ~proc:2 in
  let f_plain = Cost.failure rel plain in
  let f_repl = Cost.failure rel replicated in
  Helpers.check_float "plain" 0.2 f_plain;
  (* interval fails only if both replicas fail: 0.2 * 0.4 *)
  Helpers.check_float "replicated" 0.08 f_repl;
  Alcotest.(check bool) "replication helps" true (f_repl < f_plain)

(* ------------------------------------------------------------------ *)
(* Tri-criteria heuristic vs the exhaustive oracle                     *)
(* ------------------------------------------------------------------ *)

let gen_tri_case =
  QCheck2.Gen.map
    (fun seed ->
      let inst = tiny_instance seed in
      let rng = Rng.create (seed + 31) in
      let rel = random_reliability rng (Platform.p inst.platform) in
      (* Bounds spanning tight to loose around the single-processor
         anchor points. *)
      let period =
        Instance.single_proc_period inst
        *. (0.3 +. (float_of_int (Rng.int_in rng 0 15) /. 10.))
      in
      let failure = float_of_int (Rng.int_in rng 0 60) /. 100. in
      (inst, rel, period, failure))
    gen_seed

let prop_heuristic_sound_vs_oracle =
  Helpers.qtest ~count:150 "tri-criteria heuristic sound vs oracle"
    gen_tri_case (fun (inst, rel, period, failure) ->
      match Ft_heuristic.minimise_latency inst rel ~period ~failure with
      | None -> true (* conservatism is allowed; false claims are not *)
      | Some sol ->
        (* The claimed solution respects both bounds... *)
        Ft_heuristic.feasible sol ~period ~failure
        (* ...its scores are honest... *)
        && Stdlib.compare sol (Ft_heuristic.evaluate inst rel sol.mapping) = 0
        &&
        (* ...and the oracle agrees the instance is feasible, with a
           latency no worse than the heuristic's. *)
        (match Ft_exhaustive.min_latency inst rel ~period ~failure with
        | None -> false
        | Some oracle ->
          oracle.Ft_heuristic.latency <= sol.latency *. (1. +. 1e-9)))

let prop_oracle_solution_feasible =
  Helpers.qtest ~count:100 "oracle output respects both bounds"
    gen_tri_case (fun (inst, rel, period, failure) ->
      match Ft_exhaustive.min_latency inst rel ~period ~failure with
      | None -> true
      | Some sol -> Ft_heuristic.feasible sol ~period ~failure)

(* The tri-criteria oracle rides Deal_exhaustive's task-tree frontier:
   its answer (tie witness included) may not depend on the pool width or
   the frontier size (DESIGN.md §14). *)
let with_jobs jobs f =
  let saved = Pipeline_util.Pool.jobs () in
  Pipeline_util.Pool.set_jobs jobs;
  Fun.protect ~finally:(fun () -> Pipeline_util.Pool.set_jobs saved) f

let with_tree_cap cap f =
  let saved = Pipeline_util.Pool.tree_cap () in
  Pipeline_util.Pool.set_tree_cap cap;
  Fun.protect ~finally:(fun () -> Pipeline_util.Pool.set_tree_cap saved) f

let prop_oracle_parallel_bit_identical =
  Helpers.qtest ~count:40
    "oracle: any (tree cap, jobs) = sequential (bit-for-bit)"
    QCheck2.Gen.(
      triple gen_tri_case (oneofl [ 1; 2; 9; 512 ]) (oneofl [ 1; 4; 8 ]))
    (fun ((inst, rel, period, failure), cap, jobs) ->
      let solve () = Ft_exhaustive.min_latency inst rel ~period ~failure in
      Stdlib.compare
        (with_tree_cap 1 (fun () -> with_jobs 1 solve))
        (with_tree_cap cap (fun () -> with_jobs jobs solve))
      = 0)

let test_ft_replicates_to_meet_bound () =
  (* small_instance with unreliable processors: the period bound is
     loose, so H1's single-processor shape would do — but its failure
     probability (0.3) exceeds the bound, forcing replication. *)
  let inst = Helpers.small_instance () in
  let rel = Reliability.uniform ~p:3 0.3 in
  let period = Instance.single_proc_period inst in
  let sol =
    match Ft_heuristic.minimise_latency inst rel ~period ~failure:0.2 with
    | Some sol -> sol
    | None -> Alcotest.fail "expected a feasible solution"
  in
  Alcotest.(check bool) "failure within bound" true (sol.failure <= 0.2);
  Alcotest.(check bool) "period within bound" true
    (sol.period <= period *. (1. +. 1e-9));
  Alcotest.(check bool) "some interval replicated" true
    (List.exists
       (fun j -> DM.replication sol.mapping j > 1)
       (List.init (DM.m sol.mapping) Fun.id))

let test_ft_infeasible_bound () =
  (* Every processor can fail, so a zero failure bound is unreachable. *)
  let inst = Helpers.small_instance () in
  let rel = Reliability.uniform ~p:3 0.3 in
  let period = Instance.single_proc_period inst in
  Alcotest.(check bool) "infeasible" true
    (Ft_heuristic.minimise_latency inst rel ~period ~failure:0. = None);
  Alcotest.(check bool) "oracle agrees" true
    (Ft_exhaustive.min_latency inst rel ~period ~failure:0. = None)

let test_ft_rejects_bad_bounds () =
  let inst = Helpers.small_instance () in
  let rel = Reliability.uniform ~p:3 0.1 in
  let rejects name f =
    Alcotest.(check bool) name true
      (try
         ignore (f ());
         false
       with Invalid_argument _ -> true)
  in
  rejects "wrong vector size" (fun () ->
      Ft_heuristic.minimise_latency inst
        (Reliability.uniform ~p:2 0.1)
        ~period:10. ~failure:0.5);
  rejects "bad period" (fun () ->
      Ft_heuristic.minimise_latency inst rel ~period:0. ~failure:0.5);
  rejects "bad failure bound" (fun () ->
      Ft_heuristic.minimise_latency inst rel ~period:10. ~failure:1.5)

(* ------------------------------------------------------------------ *)
(* Online remapping                                                    *)
(* ------------------------------------------------------------------ *)

let test_remap_no_failure_is_stable () =
  (* With no failures and the same heuristic/threshold the controller
     re-derives the same mapping: zero migration. *)
  let inst = Helpers.small_instance () in
  let threshold = Instance.single_proc_period inst in
  let before =
    match Pipeline_core.Sp_mono_p.solve inst ~period:threshold with
    | Some sol -> sol.Pipeline_core.Solution.mapping
    | None -> Alcotest.fail "H1 infeasible at the single-processor period"
  in
  match Ft_remap.remap inst ~before ~failed:[] ~threshold with
  | None -> Alcotest.fail "survivors exist"
  | Some outcome ->
    Alcotest.(check bool) "same mapping" true
      (Mapping.equal outcome.Ft_remap.mapping before);
    Alcotest.(check int) "no migration" 0 outcome.Ft_remap.migrated_stages;
    Helpers.check_float "no volume" 0. outcome.Ft_remap.migration_volume;
    Alcotest.(check bool) "met" true outcome.Ft_remap.met_threshold;
    Alcotest.(check bool) "not a fallback" false outcome.Ft_remap.fallback

let test_remap_avoids_failed_processor () =
  let inst = Helpers.small_instance () in
  let threshold = Instance.single_proc_period inst in
  (* Everything on the fastest processor (1), which then fails. *)
  let before = Mapping.single ~n:4 ~proc:1 in
  match Ft_remap.remap inst ~before ~failed:[ 1 ] ~threshold with
  | None -> Alcotest.fail "survivors exist"
  | Some outcome ->
    Alcotest.(check bool) "failed proc not enrolled" false
      (Mapping.uses outcome.Ft_remap.mapping 1);
    Alcotest.(check bool) "valid on the platform" true
      (Mapping.valid_on outcome.Ft_remap.mapping inst.platform);
    (* All four stages lived on the dead processor, so all migrate;
       the volume charges each stage's input payload. *)
    Alcotest.(check int) "all stages migrate" 4 outcome.Ft_remap.migrated_stages;
    Helpers.check_float "volume" (10. +. 20. +. 30. +. 20.)
      outcome.Ft_remap.migration_volume

let test_remap_fallback_under_tight_threshold () =
  let inst = Helpers.small_instance () in
  let before = Mapping.single ~n:4 ~proc:1 in
  (* No mapping on the survivors can reach a near-zero period. *)
  match Ft_remap.remap inst ~before ~failed:[ 1 ] ~threshold:1e-6 with
  | None -> Alcotest.fail "survivors exist"
  | Some outcome ->
    Alcotest.(check bool) "fallback" true outcome.Ft_remap.fallback;
    Alcotest.(check bool) "threshold missed" false outcome.Ft_remap.met_threshold;
    (* Fastest survivor is processor 0 (speed 2 vs 1). *)
    Alcotest.(check int) "single interval" 1 (Mapping.m outcome.Ft_remap.mapping);
    Alcotest.(check int) "fastest survivor" 0 (Mapping.proc outcome.Ft_remap.mapping 0)

let test_remap_no_survivor () =
  let inst = Helpers.small_instance () in
  let before = Mapping.single ~n:4 ~proc:1 in
  Alcotest.(check bool) "none" true
    (Ft_remap.remap inst ~before ~failed:[ 0; 1; 2 ] ~threshold:10. = None);
  (* The same verdict when the failed list carries duplicates. *)
  Alcotest.(check bool) "none with duplicates" true
    (Ft_remap.remap inst ~before ~failed:[ 0; 0; 1; 2; 2; 1 ] ~threshold:10. = None)

let test_remap_duplicate_failed_indices () =
  (* [failed] is a set in disguise: listing a processor twice must give
     exactly the outcome of listing it once. *)
  let inst = Helpers.small_instance () in
  let threshold = Instance.single_proc_period inst in
  let before = Mapping.single ~n:4 ~proc:1 in
  let once = Ft_remap.remap inst ~before ~failed:[ 1 ] ~threshold in
  let twice = Ft_remap.remap inst ~before ~failed:[ 1; 1; 1 ] ~threshold in
  Alcotest.(check bool) "identical outcome" true (Stdlib.compare once twice = 0);
  match once with
  | None -> Alcotest.fail "survivors exist"
  | Some o ->
    Alcotest.(check bool) "dead proc shunned" false (Mapping.uses o.Ft_remap.mapping 1)

let test_remap_threshold_on_candidate_boundary () =
  (* The PR-5 threshold search probes the finite candidate set of
     achievable periods. A threshold sitting *exactly* on the candidate
     the remapped solution achieves must be met — no strict-inequality
     off-by-one at the boundary. *)
  let inst = Helpers.small_instance () in
  let before = Mapping.single ~n:4 ~proc:1 in
  let loose =
    match
      Ft_remap.remap inst ~before ~failed:[ 1 ]
        ~threshold:(10. *. Instance.single_proc_period inst)
    with
    | Some o -> o
    | None -> Alcotest.fail "survivors exist"
  in
  (* The achieved period is itself a candidate cycle-time. *)
  let engine = Cost.make inst.Instance.app inst.Instance.platform in
  Alcotest.(check bool) "achieved period is a candidate" true
    (Candidates.mem (Candidates.periods engine) loose.Ft_remap.period);
  match
    Ft_remap.remap inst ~before ~failed:[ 1 ] ~threshold:loose.Ft_remap.period
  with
  | None -> Alcotest.fail "survivors exist"
  | Some exact ->
    Alcotest.(check bool) "boundary threshold met" true exact.Ft_remap.met_threshold;
    Alcotest.(check bool) "no fallback at the boundary" false exact.Ft_remap.fallback;
    Alcotest.(check bool) "period within tolerance" true
      (Pipeline_util.Tol.meets exact.Ft_remap.period loose.Ft_remap.period)

let test_remap_rejects_bad_input () =
  let inst = Helpers.small_instance () in
  let before = Mapping.single ~n:4 ~proc:1 in
  let rejects name f =
    Alcotest.(check bool) name true
      (try
         ignore (f ());
         false
       with Invalid_argument _ -> true)
  in
  rejects "failed out of range" (fun () ->
      Ft_remap.remap inst ~before ~failed:[ 5 ] ~threshold:10.);
  rejects "negative failed" (fun () ->
      Ft_remap.remap inst ~before ~failed:[ -1 ] ~threshold:10.);
  rejects "bad threshold" (fun () ->
      Ft_remap.remap inst ~before ~failed:[] ~threshold:0.);
  rejects "foreign mapping" (fun () ->
      Ft_remap.remap inst ~before:(Mapping.single ~n:3 ~proc:0) ~failed:[]
        ~threshold:10.)

let gen_remap_case =
  QCheck2.Gen.map
    (fun seed ->
      let inst = Helpers.random_instance ~n_max:8 ~p_max:5 seed in
      let rng = Rng.create (seed + 91) in
      let p = Platform.p inst.platform in
      (* Fail a strict subset of the processors. *)
      let failed =
        List.filter (fun _ -> Rng.int rng 3 = 0) (List.init p Fun.id)
      in
      let failed = if List.length failed = p then List.tl failed else failed in
      (inst, failed))
    gen_seed

let prop_remap_uses_only_survivors =
  Helpers.qtest ~count:150 "remap enrols survivors only" gen_remap_case
    (fun (inst, failed) ->
      let before = Instance.single_proc_mapping inst in
      let threshold = Instance.single_proc_period inst in
      match Ft_remap.remap inst ~before ~failed ~threshold with
      | None -> false (* a strict subset failed: survivors exist *)
      | Some outcome ->
        Mapping.valid_on outcome.Ft_remap.mapping inst.platform
        && List.for_all
             (fun u -> not (Mapping.uses outcome.Ft_remap.mapping u))
             failed
        && outcome.Ft_remap.migration_volume >= 0.
        && outcome.Ft_remap.period > 0.
        && outcome.Ft_remap.latency > 0.)

let () =
  Alcotest.run "ft"
    [
      ( "reliability",
        [
          Alcotest.test_case "basics" `Quick test_reliability_basics;
          Alcotest.test_case "rejects" `Quick test_reliability_rejects;
          prop_deal_agrees_with_plain;
          Alcotest.test_case "replication reduces failure" `Quick
            test_deal_replication_reduces_failure;
        ] );
      ( "tri-criteria",
        [
          prop_heuristic_sound_vs_oracle;
          prop_oracle_solution_feasible;
          prop_oracle_parallel_bit_identical;
          Alcotest.test_case "replicates to meet bound" `Quick
            test_ft_replicates_to_meet_bound;
          Alcotest.test_case "infeasible bound" `Quick test_ft_infeasible_bound;
          Alcotest.test_case "bad bounds" `Quick test_ft_rejects_bad_bounds;
        ] );
      ( "remap",
        [
          Alcotest.test_case "stable without failures" `Quick
            test_remap_no_failure_is_stable;
          Alcotest.test_case "avoids failed" `Quick test_remap_avoids_failed_processor;
          Alcotest.test_case "fallback" `Quick test_remap_fallback_under_tight_threshold;
          Alcotest.test_case "no survivor" `Quick test_remap_no_survivor;
          Alcotest.test_case "duplicate failed indices" `Quick
            test_remap_duplicate_failed_indices;
          Alcotest.test_case "threshold on candidate boundary" `Quick
            test_remap_threshold_on_candidate_boundary;
          Alcotest.test_case "rejects bad input" `Quick test_remap_rejects_bad_input;
          prop_remap_uses_only_survivors;
        ] );
    ]
