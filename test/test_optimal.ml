open Pipeline_model
open Pipeline_core
open Pipeline_optimal

let gen_seed = QCheck2.Gen.int_range 0 100_000
let gen_small = QCheck2.Gen.map (Helpers.random_instance ~n_max:7 ~p_max:4) gen_seed

(* ------------------------------------------------------------------ *)
(* Subset_dp                                                           *)
(* ------------------------------------------------------------------ *)

let test_subset_dp_guard () =
  Alcotest.(check bool) "p too large" true
    (try
       ignore
         (Subset_dp.minimise_bottleneck ~n:2 ~p:17 ~cost:(fun ~d:_ ~e:_ ~u:_ -> 1.));
       false
     with Invalid_argument _ -> true)

let test_subset_dp_trivial () =
  (* One element, one processor. *)
  let value, assignment =
    Subset_dp.minimise_bottleneck ~n:1 ~p:1 ~cost:(fun ~d ~e ~u ->
        float_of_int (d + e + u))
  in
  Helpers.check_float "cost(1,1,0)" 2. value;
  Alcotest.(check int) "one interval" 1 (List.length assignment)

let test_subset_dp_prefers_cheap_processor () =
  (* Two stages; processor 1 is free, processor 0 is expensive: the
     optimum puts everything on processor 1. *)
  let cost ~d:_ ~e:_ ~u = if u = 1 then 1. else 100. in
  let value, assignment = Subset_dp.minimise_bottleneck ~n:2 ~p:2 ~cost in
  Helpers.check_float "uses the cheap one" 1. value;
  Alcotest.(check (list int)) "assignment" [ 1 ] (List.map snd assignment)

let test_subset_dp_cap_infeasible () =
  Alcotest.(check bool) "no assignment fits" true
    (Subset_dp.minimise_sum_under_cap ~n:2 ~p:2
       ~cap_cost:(fun ~d:_ ~e:_ ~u:_ -> 10.)
       ~sum_cost:(fun ~d:_ ~e:_ ~u:_ -> 1.)
       ~cap:5.
    = None)

let test_subset_dp_cap_feasible_sum () =
  (* Splitting in two halves costs 2 x 1; the single interval is banned
     by the cap. *)
  let cap_cost ~d ~e ~u:_ = if d = 1 && e = 2 then 10. else 1. in
  let sum_cost ~d:_ ~e:_ ~u:_ = 1. in
  match Subset_dp.minimise_sum_under_cap ~n:2 ~p:2 ~cap_cost ~sum_cost ~cap:5. with
  | None -> Alcotest.fail "expected a solution"
  | Some (value, assignment) ->
    Helpers.check_float "sum of two" 2. value;
    Alcotest.(check int) "two intervals" 2 (List.length assignment)

(* ------------------------------------------------------------------ *)
(* Latency (Lemma 1)                                                   *)
(* ------------------------------------------------------------------ *)

let test_latency_fastest_proc () =
  let inst = Helpers.small_instance () in
  let sol = Latency.solve inst in
  Alcotest.(check int) "fastest" 1 (Mapping.proc sol.Solution.mapping 0);
  Helpers.check_float "value" 7. sol.Solution.latency

let prop_latency_no_mapping_beats_it =
  Helpers.qtest ~count:40 "Lemma 1: single fastest processor is latency-optimal"
    gen_small
    (fun inst ->
      let opt = (Latency.solve inst).Solution.latency in
      let best = Exhaustive.min_latency inst in
      Helpers.feq ~eps:1e-9 opt best.Solution.latency)

(* ------------------------------------------------------------------ *)
(* Bicriteria vs Exhaustive                                            *)
(* ------------------------------------------------------------------ *)

let prop_min_period_matches_exhaustive =
  Helpers.qtest ~count:40 "DP min period = exhaustive" gen_small (fun inst ->
      let dp = Bicriteria.min_period inst in
      let ex = Exhaustive.min_period inst in
      Helpers.feq ~eps:1e-9 dp.Solution.period ex.Solution.period)

let prop_min_latency_under_period_matches_exhaustive =
  Helpers.qtest ~count:40 "DP latency|period = exhaustive"
    QCheck2.Gen.(pair gen_small (float_range 1.0 2.5))
    (fun (inst, scale) ->
      let opt = (Bicriteria.min_period inst).Solution.period in
      let period = opt *. scale in
      match
        ( Bicriteria.min_latency_under_period inst ~period,
          Exhaustive.min_latency_under_period inst ~period )
      with
      | Some dp, Some ex -> Helpers.feq ~eps:1e-9 dp.Solution.latency ex.Solution.latency
      | None, None -> true
      | _ -> false)

let prop_min_period_under_latency_matches_exhaustive =
  Helpers.qtest ~count:40 "DP period|latency = exhaustive"
    QCheck2.Gen.(pair gen_small (float_range 1.0 2.5))
    (fun (inst, scale) ->
      let latency = Instance.optimal_latency inst *. scale in
      match
        ( Bicriteria.min_period_under_latency inst ~latency,
          Exhaustive.min_period_under_latency inst ~latency )
      with
      | Some dp, Some ex -> Helpers.feq ~eps:1e-9 dp.Solution.period ex.Solution.period
      | None, None -> true
      | _ -> false)

let prop_min_latency_under_period_infeasible_below_optimum =
  Helpers.qtest ~count:40 "below the optimal period: infeasible" gen_small
    (fun inst ->
      let opt = (Bicriteria.min_period inst).Solution.period in
      Bicriteria.min_latency_under_period inst ~period:(opt *. 0.99 -. 1e-6) = None
      || opt <= 0.)

let test_bicriteria_rejects_het () =
  let bandwidths = [| [| 0.; 2.; 5. |]; [| 2.; 0.; 3. |]; [| 5.; 3.; 0. |] |] in
  let pl = Platform.fully_heterogeneous ~bandwidths [| 1.; 2.; 3. |] in
  let inst = Instance.make (Application.uniform ~n:3 ~work:1. ~delta:1.) pl in
  Alcotest.check_raises "rejected"
    (Invalid_argument "Bicriteria: requires a comm-homogeneous platform") (fun () ->
      ignore (Bicriteria.min_period inst))

(* ------------------------------------------------------------------ *)
(* Pareto fronts                                                       *)
(* ------------------------------------------------------------------ *)

let is_sorted_non_dominated solutions =
  let rec walk = function
    | [] | [ _ ] -> true
    | a :: (b :: _ as rest) ->
      a.Solution.period < b.Solution.period
      && a.Solution.latency > b.Solution.latency
      && walk rest
  in
  walk solutions

let prop_pareto_sorted_non_dominated =
  Helpers.qtest ~count:30 "pareto front is sorted and non-dominated" gen_small
    (fun inst -> is_sorted_non_dominated (Bicriteria.pareto inst))

let same_front a b =
  List.length a = List.length b
  && List.for_all2
       (fun (x : Solution.t) (y : Solution.t) ->
         Helpers.feq ~eps:1e-9 x.Solution.period y.Solution.period
         && Helpers.feq ~eps:1e-9 x.Solution.latency y.Solution.latency)
       a b

let prop_pareto_matches_exhaustive =
  Helpers.qtest ~count:25 "DP pareto = exhaustive pareto" gen_small (fun inst ->
      same_front (Bicriteria.pareto inst) (Exhaustive.pareto inst))

(* Fronts that once split on a 1-ulp tie: seed 1186 enumerates periods
   4.0999999999999996 and 4.1000000000000005, seed 6618 two latencies
   that far apart; the DP's capped search sees one point either way. *)
let test_pareto_ulp_ties () =
  List.iter
    (fun seed ->
      let inst = Helpers.random_instance ~n_max:7 ~p_max:4 seed in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d" seed)
        true
        (same_front (Bicriteria.pareto inst) (Exhaustive.pareto inst)))
    [ 1186; 6618 ]

let prop_pareto_endpoints =
  Helpers.qtest ~count:30 "front spans min period .. optimal latency" gen_small
    (fun inst ->
      match Bicriteria.pareto inst with
      | [] -> false
      | front ->
        let first = List.hd front and last = List.nth front (List.length front - 1) in
        Helpers.feq ~eps:1e-9 first.Solution.period
          (Bicriteria.min_period inst).Solution.period
        && Helpers.feq ~eps:1e-9 last.Solution.latency
             (Latency.solve inst).Solution.latency)

(* ------------------------------------------------------------------ *)
(* Exhaustive enumeration                                              *)
(* ------------------------------------------------------------------ *)

let test_count_mappings_known () =
  (* n=2, p=2: m=1 -> 2 mappings; m=2 -> 1 partition x 2 arrangements. *)
  Helpers.check_float "n2 p2" 4. (Exhaustive.count_mappings ~n:2 ~p:2);
  (* n=3, p=1: single mapping. *)
  Helpers.check_float "n3 p1" 1. (Exhaustive.count_mappings ~n:3 ~p:1)

let test_iter_matches_count () =
  List.iter
    (fun (n, p) ->
      let app = Application.uniform ~n ~work:1. ~delta:1. in
      let pl = Platform.comm_homogeneous ~bandwidth:1. (Array.make p 1.) in
      let inst = Instance.make app pl in
      let count = ref 0 in
      Exhaustive.iter_mappings inst (fun _ -> incr count);
      Helpers.check_float
        (Printf.sprintf "n=%d p=%d" n p)
        (Exhaustive.count_mappings ~n ~p)
        (float_of_int !count))
    [ (1, 1); (2, 2); (3, 2); (4, 3); (5, 3) ]

let test_iter_mappings_all_valid () =
  let inst = Helpers.small_instance () in
  Exhaustive.iter_mappings inst (fun mapping ->
      Alcotest.(check bool) "valid" true
        (Mapping.valid_on mapping inst.Instance.platform);
      Alcotest.(check int) "covers all stages" 4 (Mapping.n mapping))

let test_exhaustive_guard () =
  let app = Application.uniform ~n:30 ~work:1. ~delta:1. in
  let pl = Platform.comm_homogeneous ~bandwidth:1. (Array.make 30 1.) in
  let inst = Instance.make app pl in
  Alcotest.(check bool) "guarded" true
    (try
       Exhaustive.iter_mappings inst (fun _ -> ());
       false
     with Invalid_argument _ -> true)

let test_exhaustive_works_on_het () =
  (* The enumerator scores with the het-aware Metrics. *)
  let bandwidths = [| [| 0.; 2.; 5. |]; [| 2.; 0.; 3. |]; [| 5.; 3.; 0. |] |] in
  let pl = Platform.fully_heterogeneous ~bandwidths [| 1.; 2.; 3. |] in
  let inst = Instance.make (Application.uniform ~n:3 ~work:6. ~delta:2.) pl in
  let sol = Exhaustive.min_period inst in
  Alcotest.(check bool) "positive period" true (sol.Solution.period > 0.);
  Alcotest.(check bool) "valid mapping" true
    (Mapping.valid_on sol.Solution.mapping pl)

(* The task-tree fan-out must return the very same solution objects
   (mapping included, ties and all) as the sequential scan — at every
   pool width AND every frontier size: the frontier preserves the
   enumeration order and merges are first-seen-wins, so not even a
   tie witness may move (DESIGN.md §14). *)
let with_jobs jobs f =
  let saved = Pipeline_util.Pool.jobs () in
  Pipeline_util.Pool.set_jobs jobs;
  Fun.protect ~finally:(fun () -> Pipeline_util.Pool.set_jobs saved) f

let with_tree_cap cap f =
  let saved = Pipeline_util.Pool.tree_cap () in
  Pipeline_util.Pool.set_tree_cap cap;
  Fun.protect ~finally:(fun () -> Pipeline_util.Pool.set_tree_cap saved) f

let gen_cap_jobs =
  (* Frontier sizes from "no expansion" through mid to the default, at
     the widths CI exercises. *)
  QCheck2.Gen.(pair (oneofl [ 1; 2; 9; 512 ]) (oneofl [ 1; 4; 8 ]))

let prop_exhaustive_parallel_bit_identical =
  Helpers.qtest ~count:60
    "exhaustive solvers: any (tree cap, jobs) = sequential (bit-for-bit)"
    QCheck2.Gen.(pair (int_range 0 10_000) gen_cap_jobs)
    (fun (seed, (cap, jobs)) ->
      let inst = Helpers.random_instance ~n_max:6 ~p_max:4 seed in
      let period =
        Instance.single_proc_period inst *. 0.7
      and latency = Instance.optimal_latency inst *. 1.5 in
      let all () =
        ( Exhaustive.min_period inst,
          Exhaustive.min_latency inst,
          Exhaustive.min_latency_under_period inst ~period,
          Exhaustive.min_period_under_latency inst ~latency,
          Exhaustive.pareto inst )
      in
      Stdlib.compare
        (with_tree_cap 1 (fun () -> with_jobs 1 all))
        (with_tree_cap cap (fun () -> with_jobs jobs all))
      = 0)

let prop_exhaustive_het_parallel_bit_identical =
  Helpers.qtest ~count:40
    "exhaustive on fully-het platforms: any (tree cap, jobs) = sequential"
    QCheck2.Gen.(pair (int_range 0 10_000) gen_cap_jobs)
    (fun (seed, (cap, jobs)) ->
      let inst = Helpers.random_het_instance ~n_max:6 ~p_max:4 seed in
      let period = Instance.single_proc_period inst *. 0.7 in
      let all () =
        ( Exhaustive.min_period inst,
          Exhaustive.min_latency_under_period inst ~period )
      in
      Stdlib.compare
        (with_tree_cap 1 (fun () -> with_jobs 1 all))
        (with_tree_cap cap (fun () -> with_jobs jobs all))
      = 0)

let prop_branch_bound_parallel_bit_identical =
  Helpers.qtest ~count:40
    "branch-bound: solution, nodes and proven flag ignore the pool width"
    QCheck2.Gen.(pair (int_range 0 10_000) (oneofl [ 1; 2; 9; 512 ]))
    (fun (seed, cap) ->
      (* At a FIXED frontier cap the whole result record — witness
         mapping, node count, prune-budget outcome — must be a pure
         function of the wave schedule, never of domain timing. The
         tiny budget exercises the budget-exhausted path, the default
         one the proven path; both run multiple waves, so the shared
         incumbent is live in each. *)
      let inst = Helpers.random_instance ~n_max:7 ~p_max:6 seed in
      let solve budget () = Branch_bound.min_period ~node_budget:budget inst in
      with_tree_cap cap (fun () ->
          List.for_all
            (fun budget ->
              let r1 = with_jobs 1 (solve budget) in
              let r4 = with_jobs 4 (solve budget) in
              let r8 = with_jobs 8 (solve budget) in
              Stdlib.compare r1 r4 = 0 && Stdlib.compare r1 r8 = 0)
            [ 400; 1_000_000 ]))

let prop_branch_bound_optimum_ignores_frontier =
  Helpers.qtest ~count:40
    "branch-bound: the optimum period is frontier-cap-invariant"
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      (* Node counts legitimately differ between caps (different prune
         schedules); the proven optimum may not. *)
      let inst = Helpers.random_instance ~n_max:7 ~p_max:5 seed in
      let at cap =
        with_tree_cap cap (fun () -> (Branch_bound.min_period inst).solution)
      in
      let r1 = at 1 and r512 = at 512 in
      r1.Solution.period = r512.Solution.period)


(* ------------------------------------------------------------------ *)
(* Homogeneous (Subhlok-Vondran polynomial solvers)                    *)
(* ------------------------------------------------------------------ *)

let gen_hom_instance =
  QCheck2.Gen.map
    (fun seed ->
      let rng = Pipeline_util.Rng.create seed in
      let n = 1 + Pipeline_util.Rng.int rng 7 in
      let p = 1 + Pipeline_util.Rng.int rng 4 in
      let works =
        Array.init n (fun _ -> float_of_int (Pipeline_util.Rng.int_in rng 1 20))
      in
      let deltas =
        Array.init (n + 1) (fun _ -> float_of_int (Pipeline_util.Rng.int_in rng 0 30))
      in
      let speed = float_of_int (Pipeline_util.Rng.int_in rng 1 20) in
      let app = Application.make ~deltas works in
      let platform = Platform.fully_homogeneous ~speed ~bandwidth:10. p in
      Instance.make ~seed app platform)
    gen_seed

let test_homogeneous_rejects_different_speeds () =
  let inst = Helpers.small_instance () in
  Alcotest.check_raises "different speeds"
    (Invalid_argument "Homogeneous: requires identical processor speeds")
    (fun () -> ignore (Homogeneous.min_period inst))

let prop_homogeneous_period_matches_subset_dp =
  Helpers.qtest ~count:40 "poly DP = subset DP on equal speeds" gen_hom_instance
    (fun inst ->
      let poly = Homogeneous.min_period inst in
      let subset = Bicriteria.min_period inst in
      Helpers.feq ~eps:1e-9 poly.Solution.period subset.Solution.period)

let prop_homogeneous_latency_under_period_matches =
  Helpers.qtest ~count:40 "poly latency|period = subset DP"
    QCheck2.Gen.(pair gen_hom_instance (float_range 1.0 2.5))
    (fun (inst, scale) ->
      let period = (Homogeneous.min_period inst).Solution.period *. scale in
      match
        ( Homogeneous.min_latency_under_period inst ~period,
          Bicriteria.min_latency_under_period inst ~period )
      with
      | Some a, Some b -> Helpers.feq ~eps:1e-9 a.Solution.latency b.Solution.latency
      | None, None -> true
      | _ -> false)

let prop_homogeneous_period_under_latency_matches =
  Helpers.qtest ~count:30 "poly period|latency = subset DP"
    QCheck2.Gen.(pair gen_hom_instance (float_range 1.0 2.5))
    (fun (inst, scale) ->
      let latency = Instance.optimal_latency inst *. scale in
      match
        ( Homogeneous.min_period_under_latency inst ~latency,
          Bicriteria.min_period_under_latency inst ~latency )
      with
      | Some a, Some b -> Helpers.feq ~eps:1e-9 a.Solution.period b.Solution.period
      | None, None -> true
      | _ -> false)

let prop_homogeneous_pareto_matches =
  Helpers.qtest ~count:20 "poly pareto = subset DP pareto" gen_hom_instance
    (fun inst -> same_front (Homogeneous.pareto inst) (Bicriteria.pareto inst))

(* ------------------------------------------------------------------ *)
(* One_to_one                                                          *)
(* ------------------------------------------------------------------ *)

(* Instances with n <= p so one-to-one mappings exist. *)
let gen_one_to_one =
  QCheck2.Gen.map
    (fun seed ->
      let rng = Pipeline_util.Rng.create seed in
      let n = 1 + Pipeline_util.Rng.int rng 5 in
      let p = n + Pipeline_util.Rng.int rng 3 in
      let works =
        Array.init n (fun _ -> float_of_int (Pipeline_util.Rng.int_in rng 1 20))
      in
      let deltas =
        Array.init (n + 1) (fun _ -> float_of_int (Pipeline_util.Rng.int_in rng 0 30))
      in
      let speeds =
        Array.init p (fun _ -> float_of_int (Pipeline_util.Rng.int_in rng 1 20))
      in
      let app = Application.make ~deltas works in
      let platform = Platform.comm_homogeneous ~bandwidth:10. speeds in
      Instance.make ~seed app platform)
    gen_seed

(* Exhaustive over one-to-one mappings only. *)
let brute_one_to_one inst measure =
  let n = Application.n inst.Instance.app in
  let p = Platform.p inst.Instance.platform in
  let used = Array.make p false in
  let procs = Array.make n 0 in
  let best = ref infinity in
  let rec go k =
    if k = n then begin
      let sol =
        Solution.of_mapping inst (Mapping.one_to_one ~procs)
      in
      best := Float.min !best (measure sol)
    end
    else
      for u = 0 to p - 1 do
        if not used.(u) then begin
          used.(u) <- true;
          procs.(k) <- u;
          go (k + 1);
          used.(u) <- false
        end
      done
  in
  go 0;
  !best

let test_one_to_one_requires_enough_procs () =
  let app = Application.uniform ~n:5 ~work:1. ~delta:1. in
  let pl = Platform.comm_homogeneous ~bandwidth:1. [| 1.; 1. |] in
  let inst = Instance.make app pl in
  Alcotest.check_raises "n > p" (Invalid_argument "One_to_one: requires n <= p")
    (fun () -> ignore (One_to_one.min_period inst))

let prop_one_to_one_period_matches_brute =
  Helpers.qtest ~count:40 "bottleneck assignment = brute force" gen_one_to_one
    (fun inst ->
      let sol = One_to_one.min_period inst in
      let brute = brute_one_to_one inst (fun s -> s.Solution.period) in
      Helpers.feq ~eps:1e-9 sol.Solution.period brute)

let prop_one_to_one_latency_matches_brute =
  Helpers.qtest ~count:40 "Hungarian latency = brute force" gen_one_to_one
    (fun inst ->
      let sol = One_to_one.min_latency inst in
      let brute = brute_one_to_one inst (fun s -> s.Solution.latency) in
      Helpers.feq ~eps:1e-9 sol.Solution.latency brute)

let prop_one_to_one_never_beats_interval =
  Helpers.qtest ~count:30 "interval mappings dominate one-to-one" gen_one_to_one
    (fun inst ->
      (* One-to-one mappings are a subset of interval mappings. *)
      let o = One_to_one.min_period inst in
      let i = Bicriteria.min_period inst in
      o.Solution.period >= i.Solution.period -. 1e-9)

let prop_one_to_one_constrained_consistent =
  Helpers.qtest ~count:30 "latency|period: feasibility and optimality"
    QCheck2.Gen.(pair gen_one_to_one (float_range 1.0 2.))
    (fun (inst, scale) ->
      let period = (One_to_one.min_period inst).Solution.period *. scale in
      match One_to_one.min_latency_under_period inst ~period with
      | None -> false (* threshold >= the optimum: must be feasible *)
      | Some sol ->
        Solution.respects_period sol period
        && sol.Solution.latency
           >= (One_to_one.min_latency inst).Solution.latency -. 1e-9)

let prop_one_to_one_pareto_sorted =
  Helpers.qtest ~count:30 "one-to-one pareto is sorted and non-dominated"
    gen_one_to_one
    (fun inst -> is_sorted_non_dominated (One_to_one.pareto inst))


(* ------------------------------------------------------------------ *)
(* Scalarised objective                                                *)
(* ------------------------------------------------------------------ *)

let prop_scalarised_extremes =
  Helpers.qtest ~count:30 "alpha=1 -> min period; alpha=0 -> min latency"
    gen_small
    (fun inst ->
      let by_period = Scalarised.optimal inst ~alpha:1. in
      let by_latency = Scalarised.optimal inst ~alpha:0. in
      Helpers.feq ~eps:1e-9 by_period.Solution.period
        (Bicriteria.min_period inst).Solution.period
      && Helpers.feq ~eps:1e-9 by_latency.Solution.latency
           (Latency.solve inst).Solution.latency)

let prop_scalarised_on_front =
  Helpers.qtest ~count:30 "the scalarised optimum sits on the Pareto front"
    QCheck2.Gen.(pair gen_small (float_range 0. 1.))
    (fun (inst, alpha) ->
      let sol = Scalarised.optimal inst ~alpha in
      List.exists
        (fun (f : Solution.t) ->
          Helpers.feq f.Solution.period sol.Solution.period
          && Helpers.feq f.Solution.latency sol.Solution.latency)
        (Bicriteria.pareto inst))

let prop_scalarised_heuristic_dominated =
  Helpers.qtest ~count:30 "heuristic scalarised value >= exact"
    QCheck2.Gen.(pair gen_small (float_range 0. 1.))
    (fun (inst, alpha) ->
      let exact = Scalarised.value ~alpha (Scalarised.optimal inst ~alpha) in
      let heur = Scalarised.value ~alpha (Scalarised.heuristic inst ~alpha) in
      heur >= exact -. 1e-9)

let test_scalarised_rejects_bad_alpha () =
  let inst = Helpers.small_instance () in
  Alcotest.check_raises "alpha > 1"
    (Invalid_argument "Scalarised: alpha must be in [0,1]") (fun () ->
      ignore (Scalarised.optimal inst ~alpha:1.5))

let test_scalarised_heuristic_requires_period_kind () =
  let inst = Helpers.small_instance () in
  let latency_info = List.nth Pipeline_core.Registry.all 4 in
  Alcotest.check_raises "latency-fixed rejected"
    (Invalid_argument "Scalarised.heuristic: requires a period-fixed heuristic")
    (fun () ->
      ignore (Scalarised.heuristic ~heuristic:latency_info inst ~alpha:0.5))


(* ------------------------------------------------------------------ *)
(* Local_search                                                        *)
(* ------------------------------------------------------------------ *)

let prop_neighbours_valid =
  Helpers.qtest ~count:40 "every neighbour is a valid mapping" gen_small
    (fun inst ->
      let start = Bicriteria.min_period inst in
      List.for_all
        (fun mapping ->
          Mapping.valid_on mapping inst.Instance.platform
          && Mapping.n mapping = Application.n inst.Instance.app)
        (Local_search.neighbours inst start.Solution.mapping))

let prop_local_search_never_worse =
  Helpers.qtest ~count:40 "descent never worsens the objective" gen_small
    (fun inst ->
      let rng = Pipeline_util.Rng.create (Hashtbl.hash inst) in
      let start = Pipeline_core.Baseline.random rng inst in
      let polished = Local_search.improve inst start in
      polished.Solution.period <= start.Solution.period +. 1e-9
      || (polished.Solution.period = start.Solution.period
         && polished.Solution.latency <= start.Solution.latency +. 1e-9))

let prop_local_search_respects_feasibility =
  Helpers.qtest ~count:30 "feasibility filter is honoured"
    QCheck2.Gen.(pair gen_small (float_range 1.1 2.))
    (fun (inst, scale) ->
      let opt = (Bicriteria.min_period inst).Solution.period in
      let threshold = opt *. scale in
      match Bicriteria.min_latency_under_period inst ~period:threshold with
      | None -> true
      | Some start ->
        let polished =
          Local_search.improve ~objective:Local_search.Latency_then_period
            ~feasible:(fun s -> Solution.respects_period s threshold)
            inst start
        in
        Solution.respects_period polished threshold
        && polished.Solution.latency <= start.Solution.latency +. 1e-9)

let prop_local_search_from_optimal_stays =
  Helpers.qtest ~count:30 "the exact optimum is a local optimum" gen_small
    (fun inst ->
      let opt = Bicriteria.min_period inst in
      let polished = Local_search.improve inst opt in
      Helpers.feq ~eps:1e-9 polished.Solution.period opt.Solution.period)

let test_local_search_recovers_processor_swap () =
  (* A deliberately inverted assignment: fast stage work on the slow
     machine. One swap move fixes it. *)
  let app = Application.make ~deltas:[| 0.; 0.; 0. |] [| 10.; 1. |] in
  let pl = Platform.comm_homogeneous ~bandwidth:1. [| 1.; 10. |] in
  let inst = Instance.make app pl in
  let bad = Solution.of_mapping inst (Mapping.one_to_one ~procs:[| 0; 1 |]) in
  Helpers.check_float "bad period" 10. bad.Solution.period;
  let polished = Local_search.improve inst bad in
  Helpers.check_float "swapped" 1. polished.Solution.period

(* ------------------------------------------------------------------ *)
(* Branch_bound                                                        *)
(* ------------------------------------------------------------------ *)

let prop_branch_bound_matches_subset_dp =
  Helpers.qtest ~count:40 "B&B (proven) = subset DP" gen_small (fun inst ->
      let result = Branch_bound.min_period inst in
      let dp = Bicriteria.min_period inst in
      result.Branch_bound.proven_optimal
      && Helpers.feq ~eps:1e-9 result.Branch_bound.solution.Solution.period
           dp.Solution.period)

let prop_branch_bound_anytime_sound =
  Helpers.qtest ~count:20 "tiny budget: still a valid, no-worse-than-seed result"
    gen_small
    (fun inst ->
      let seed = Solution.of_mapping inst (Instance.single_proc_mapping inst) in
      let result = Branch_bound.min_period ~node_budget:10 ~initial:seed inst in
      Mapping.valid_on result.Branch_bound.solution.Solution.mapping
        inst.Instance.platform
      && result.Branch_bound.solution.Solution.period
         <= seed.Solution.period +. 1e-9)

let test_branch_bound_scales_to_p100 () =
  (* p = 100 with integer speeds: symmetry pruning keeps this tractable. *)
  let rng = Pipeline_util.Rng.create 7 in
  let app = App_generator.generate rng (App_generator.e1 ~n:12) in
  let platform = Platform_generator.comm_homogeneous rng ~p:100 in
  let inst = Instance.make app platform in
  let result = Branch_bound.min_period ~node_budget:200_000 inst in
  (* The heuristic seed must not be better than the B&B result. *)
  (match Pipeline_core.Sp_mono_l.solve inst ~latency:infinity with
  | Some h ->
    Alcotest.(check bool) "B&B <= heuristic" true
      (result.Branch_bound.solution.Solution.period
      <= h.Solution.period +. 1e-9)
  | None -> ());
  Alcotest.(check bool) "valid" true
    (Mapping.valid_on result.Branch_bound.solution.Solution.mapping platform)

let test_branch_bound_rejects_het () =
  let bandwidths = [| [| 0.; 2.; 5. |]; [| 2.; 0.; 3. |]; [| 5.; 3.; 0. |] |] in
  let pl = Platform.fully_heterogeneous ~bandwidths [| 1.; 2.; 3. |] in
  let inst = Instance.make (Application.uniform ~n:3 ~work:1. ~delta:1.) pl in
  Alcotest.check_raises "rejected"
    (Invalid_argument "Branch_bound: requires a comm-homogeneous platform")
    (fun () -> ignore (Branch_bound.min_period inst))

let () =
  Alcotest.run "optimal"
    [
      ( "subset_dp",
        [
          Alcotest.test_case "guard" `Quick test_subset_dp_guard;
          Alcotest.test_case "trivial" `Quick test_subset_dp_trivial;
          Alcotest.test_case "cheap processor" `Quick
            test_subset_dp_prefers_cheap_processor;
          Alcotest.test_case "cap infeasible" `Quick test_subset_dp_cap_infeasible;
          Alcotest.test_case "cap feasible" `Quick test_subset_dp_cap_feasible_sum;
        ] );
      ( "latency",
        [
          Alcotest.test_case "fastest proc" `Quick test_latency_fastest_proc;
          prop_latency_no_mapping_beats_it;
        ] );
      ( "bicriteria",
        [
          prop_min_period_matches_exhaustive;
          prop_min_latency_under_period_matches_exhaustive;
          prop_min_period_under_latency_matches_exhaustive;
          prop_min_latency_under_period_infeasible_below_optimum;
          Alcotest.test_case "rejects het" `Quick test_bicriteria_rejects_het;
        ] );
      ( "pareto",
        [
          prop_pareto_sorted_non_dominated;
          prop_pareto_matches_exhaustive;
          Alcotest.test_case "pareto 1-ulp ties" `Quick test_pareto_ulp_ties;
          prop_pareto_endpoints;
        ] );
      ( "homogeneous",
        [
          Alcotest.test_case "rejects het speeds" `Quick
            test_homogeneous_rejects_different_speeds;
          prop_homogeneous_period_matches_subset_dp;
          prop_homogeneous_latency_under_period_matches;
          prop_homogeneous_period_under_latency_matches;
          prop_homogeneous_pareto_matches;
        ] );
      ( "one-to-one",
        [
          Alcotest.test_case "requires n <= p" `Quick
            test_one_to_one_requires_enough_procs;
          prop_one_to_one_period_matches_brute;
          prop_one_to_one_latency_matches_brute;
          prop_one_to_one_never_beats_interval;
          prop_one_to_one_constrained_consistent;
          prop_one_to_one_pareto_sorted;
        ] );
      ( "scalarised",
        [
          prop_scalarised_extremes;
          prop_scalarised_on_front;
          prop_scalarised_heuristic_dominated;
          Alcotest.test_case "bad alpha" `Quick test_scalarised_rejects_bad_alpha;
          Alcotest.test_case "kind check" `Quick
            test_scalarised_heuristic_requires_period_kind;
        ] );
      ( "local-search",
        [
          prop_neighbours_valid;
          prop_local_search_never_worse;
          prop_local_search_respects_feasibility;
          prop_local_search_from_optimal_stays;
          Alcotest.test_case "recovers a swap" `Quick
            test_local_search_recovers_processor_swap;
        ] );
      ( "branch-bound",
        [
          prop_branch_bound_matches_subset_dp;
          prop_branch_bound_anytime_sound;
          Alcotest.test_case "p = 100" `Slow test_branch_bound_scales_to_p100;
          Alcotest.test_case "rejects het" `Quick test_branch_bound_rejects_het;
          prop_branch_bound_parallel_bit_identical;
          prop_branch_bound_optimum_ignores_frontier;
        ] );
      ( "exhaustive",
        [
          Alcotest.test_case "count known" `Quick test_count_mappings_known;
          Alcotest.test_case "iter matches count" `Quick test_iter_matches_count;
          Alcotest.test_case "all valid" `Quick test_iter_mappings_all_valid;
          Alcotest.test_case "guard" `Quick test_exhaustive_guard;
          Alcotest.test_case "het platform" `Quick test_exhaustive_works_on_het;
          prop_exhaustive_parallel_bit_identical;
          prop_exhaustive_het_parallel_bit_identical;
        ] );
    ]
