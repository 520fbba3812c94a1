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

let arities = [ Split.Two; Split.Three; Split.Three_or_two ]
let rules = [ Split.Mono; Split.Bi ]

let test_split_two_candidates_improving () =
  let inst = Helpers.small_instance () in
  let config = Split.initial inst in
  List.iter
    (fun rule ->
      match Split.step ~arity:Two ~rule config ~cap:infinity with
      | None -> Alcotest.fail "expected a split"
      | Some config' ->
        Alcotest.(check int) "two pieces" 2 (Split.intervals config');
        Alcotest.(check int) "enrolls one" 1 (Split.unused config - Split.unused config');
        for j = 0 to 1 do
          Alcotest.(check bool) "improves the split interval" true
            (Split.cycle config' j < Split.cycle config 0)
        done;
        Alcotest.(check bool) "latency does not decrease" true
          (Split.latency config' >= Split.latency config -. 1e-9))
    rules

let test_split_apply_consistent_with_metrics () =
  let inst = Helpers.small_instance () in
  let config = Split.initial inst in
  match Split.step ~arity:Two ~rule:Mono config ~cap:infinity with
  | None -> Alcotest.fail "expected a split"
  | Some config' ->
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
  List.iter
    (fun arity ->
      List.iter
        (fun rule ->
          Alcotest.(check bool) "no split" true
            (Split.step ~arity ~rule config ~cap:infinity = None))
        rules)
    arities

let test_split_three_needs_two_procs () =
  let app = Application.uniform ~n:6 ~work:5. ~delta:1. in
  let pl = Platform.comm_homogeneous ~bandwidth:10. [| 4.; 2. |] in
  let inst = Instance.make app pl in
  let config = Split.initial inst in
  (* Only one unused processor: 3-split impossible, 2-split fine. *)
  Alcotest.(check bool) "no 3-splits" true
    (Split.step ~arity:Three ~rule:Mono config ~cap:infinity = None);
  Alcotest.(check bool) "has 2-splits" true
    (Split.step ~arity:Two ~rule:Mono config ~cap:infinity <> None)

(* Every step of the uncapped walk of each arity and rule, as
   (configuration, next configuration) pairs. *)
let walk_steps inst ~arity ~rule =
  let rec go acc config =
    match Split.step ~arity ~rule config ~cap:infinity with
    | None -> List.rev acc
    | Some config' -> go ((config, config') :: acc) config'
  in
  go [] (Split.initial inst)

let every_step inst f =
  List.for_all
    (fun arity ->
      List.for_all
        (fun rule -> List.for_all (f ~arity) (walk_steps inst ~arity ~rule))
        rules)
    arities

let prop_split_candidates_all_improve =
  Helpers.qtest "every generated candidate strictly improves its interval"
    gen_seed
    (fun seed ->
      every_step (Helpers.random_instance seed) (fun ~arity (config, config') ->
          let j = Split.bottleneck config in
          let enrolled = Split.unused config - Split.unused config' in
          let pieces = Split.intervals config' - Split.intervals config + 1 in
          (match arity with
          | Split.Two -> enrolled = 1
          | Split.Three -> enrolled = 2
          | Split.Three_or_two -> enrolled = 1 || enrolled = 2)
          && pieces = enrolled + 1
          && List.for_all
               (fun i -> Split.cycle config' (j + i) < Split.cycle config j)
               (List.init pieces Fun.id)))

let prop_split_candidate_metrics_exact =
  Helpers.qtest "candidate period/latency match a full re-evaluation" gen_seed
    (fun seed ->
      every_step (Helpers.random_instance seed) (fun ~arity:_ (_, config') ->
          let sol = Split.to_solution config' in
          Helpers.feq ~eps:1e-9 sol.Solution.period (Split.period config')
          && Helpers.feq ~eps:1e-9 sol.Solution.latency (Split.latency config')))

(* The splitting walk as it was before Split.step scanned: every
   improving split of the bottleneck is built as a candidate record in a
   list, the list is filtered by the cap and folded down to one winner
   under the rule. Split.step must pick the same split, bit for bit. *)
module Ref_walk = struct
  type piece = { first : int; last : int; proc : int; cycle : float }

  type candidate = {
    pieces : piece list;
    max_piece : float;
    latency : float;
    dlatency : float;
    ratio : float;
  }

  type state = { parts : piece list; next_rank : int; latency : float }

  let cost (inst : Instance.t) = Cost.get inst.app inst.platform
  let order (inst : Instance.t) = Platform.by_decreasing_speed inst.platform

  let piece inst d e u = { first = d; last = e; proc = u; cycle = Cost.cycle (cost inst) ~d ~e ~u }

  let initial inst =
    let n = Application.n inst.Instance.app and u = (order inst).(0) in
    {
      parts = [ piece inst 1 n u ];
      next_rank = 1;
      latency = Cost.contrib (cost inst) ~d:1 ~e:n ~u +. Cost.dout (cost inst) ~e:n;
    }

  let period st = List.fold_left (fun m p -> Float.max m p.cycle) neg_infinity st.parts

  let bottleneck st =
    let cycles = Array.of_list (List.map (fun p -> p.cycle) st.parts) in
    let best = ref 0 in
    Array.iteri (fun j c -> if c > cycles.(!best) then best := j) cycles;
    !best

  let candidate inst st (old : piece) pieces =
    let max_piece = List.fold_left (fun m p -> Float.max m p.cycle) neg_infinity pieces in
    if max_piece >= old.cycle then None
    else begin
      let contrib p = Cost.contrib (cost inst) ~d:p.first ~e:p.last ~u:p.proc in
      let dlatency = List.fold_left (fun acc p -> acc +. contrib p) 0. pieces -. contrib old in
      let ratio =
        List.fold_left
          (fun m p -> Float.max m (dlatency /. (old.cycle -. p.cycle)))
          neg_infinity pieces
      in
      Some { pieces; max_piece; latency = st.latency +. dlatency; dlatency; ratio }
    end

  let candidates inst st ~arity =
    let old = List.nth st.parts (bottleneck st) in
    let free = Array.length (order inst) - st.next_rank in
    let next k = (order inst).(st.next_rank + k) in
    let cuts lo hi = List.init (max 0 (hi - lo + 1)) (fun i -> lo + i) in
    let two () =
      if old.last = old.first || free < 1 then []
      else
        List.concat_map
          (fun c ->
            List.map
              (fun (pa, pb) -> [ piece inst old.first c pa; piece inst (c + 1) old.last pb ])
              [ (old.proc, next 0); (next 0, old.proc) ])
          (cuts old.first (old.last - 1))
        |> List.filter_map (candidate inst st old)
    in
    let three () =
      if old.last - old.first < 2 || free < 2 then []
      else begin
        let u = old.proc and u' = next 0 and u'' = next 1 in
        List.concat_map
          (fun c1 ->
            List.concat_map
              (fun c2 ->
                List.map
                  (fun (pa, pb, pc) ->
                    [
                      piece inst old.first c1 pa;
                      piece inst (c1 + 1) c2 pb;
                      piece inst (c2 + 1) old.last pc;
                    ])
                  [
                    (u, u', u''); (u, u'', u'); (u', u, u'');
                    (u'', u, u'); (u', u'', u); (u'', u', u);
                  ])
              (cuts (c1 + 1) (old.last - 1)))
          (cuts old.first (old.last - 2))
        |> List.filter_map (candidate inst st old)
      end
    in
    match (arity : Split.arity) with
    | Two -> two ()
    | Three -> three ()
    | Three_or_two -> ( match three () with [] -> two () | cs -> cs)

  let better (rule : Split.rule) a b =
    match rule with
    | Mono -> (
      match compare a.max_piece b.max_piece with 0 -> a.dlatency < b.dlatency | c -> c < 0)
    | Bi -> ( match compare a.ratio b.ratio with 0 -> a.max_piece < b.max_piece | c -> c < 0)

  let select rule = function
    | [] -> None
    | first :: rest ->
      Some (List.fold_left (fun acc c -> if better rule c acc then c else acc) first rest)

  let rec walk inst ~arity ~rule ~cap st =
    let j = bottleneck st in
    let capped =
      List.filter
        (fun (c : candidate) -> Pipeline_util.Tol.meets c.latency cap)
        (candidates inst st ~arity)
    in
    match select rule capped with
    | None -> st
    | Some c ->
      let before = List.filteri (fun i _ -> i < j) st.parts
      and after = List.filteri (fun i _ -> i > j) st.parts in
      walk inst ~arity ~rule ~cap
        {
          parts = before @ c.pieces @ after;
          next_rank = st.next_rank + List.length c.pieces - 1;
          latency = c.latency;
        }
end

let prop_split_step_matches_reference =
  Helpers.qtest "scanned walk = list-and-select walk, bit for bit" gen_seed
    (fun seed ->
      (* n <= 8 keeps the 3-way caps (3 per candidate, up to 126
         candidates) to a few hundred walks per draw. *)
      let inst = Helpers.random_instance ~n_max:8 seed in
      let start = Ref_walk.initial inst in
      let bits x = Int64.bits_of_float x in
      let parts_of (sol : Solution.t) =
        List.init (Mapping.m sol.mapping) (fun j ->
            let iv = Mapping.interval sol.mapping j in
            (Interval.first iv, Interval.last iv, Mapping.proc sol.mapping j))
      in
      let same (got : Split.t) (want : Ref_walk.state) =
        parts_of (Split.to_solution got)
        = List.map (fun (p : Ref_walk.piece) -> (p.first, p.last, p.proc)) want.parts
        && bits (Split.period got) = bits (Ref_walk.period want)
        && bits (Split.latency got) = bits want.latency
      in
      List.for_all
        (fun arity ->
          let caps =
            infinity
            :: List.concat_map
                 (fun (c : Ref_walk.candidate) ->
                   [ Float.pred c.latency; c.latency; Float.succ c.latency ])
                 (Ref_walk.candidates inst start ~arity)
          in
          List.for_all
            (fun rule ->
              List.for_all
                (fun cap ->
                  let got =
                    Loop.minimise_period_under_latency (Split.stack ~arity ~rule inst)
                      ~latency:cap
                  in
                  let want =
                    if Pipeline_util.Tol.meets start.latency cap then
                      Some (Ref_walk.walk inst ~arity ~rule ~cap start)
                    else None
                  in
                  match (got, want) with
                  | Some got, Some want -> same got want
                  | None, None -> true
                  | _ -> false)
                caps)
            rules)
        arities)

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
          prop_split_step_matches_reference;
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
