open Pipeline_model
open Pipeline_deal
module Rng = Pipeline_util.Rng

let gen_seed = QCheck2.Gen.int_range 0 100_000

(* ------------------------------------------------------------------ *)
(* Deal_mapping                                                        *)
(* ------------------------------------------------------------------ *)

let mk_deal () =
  Deal_mapping.make ~n:4
    [ (Interval.make ~first:1 ~last:2, [ 0 ]); (Interval.make ~first:3 ~last:4, [ 1; 2 ]) ]

let test_deal_mapping_basics () =
  let d = mk_deal () in
  Alcotest.(check int) "m" 2 (Deal_mapping.m d);
  Alcotest.(check int) "replication" 2 (Deal_mapping.replication d 1);
  Alcotest.(check (list int)) "replicas" [ 1; 2 ] (Deal_mapping.replicas d 1);
  Alcotest.(check bool) "uses 2" true (Deal_mapping.uses d 2);
  Alcotest.(check bool) "not uses 3" false (Deal_mapping.uses d 3);
  Alcotest.(check string) "to_string" "{[1..2]->{P0}, [3..4]->{P1,P2}}"
    (Deal_mapping.to_string d)

let test_deal_mapping_rejects () =
  Alcotest.check_raises "duplicate proc"
    (Invalid_argument "Deal_mapping: processor enrolled twice") (fun () ->
      ignore
        (Deal_mapping.make ~n:2
           [ (Interval.singleton 1, [ 0 ]); (Interval.singleton 2, [ 0 ]) ]));
  Alcotest.check_raises "empty replicas"
    (Invalid_argument "Deal_mapping: empty replica set") (fun () ->
      ignore (Deal_mapping.make ~n:1 [ (Interval.singleton 1, []) ]))

let test_deal_mapping_embedding () =
  let plain = Mapping.of_cuts ~n:4 ~cuts:[ 2 ] ~procs:[ 1; 0 ] in
  let deal = Deal_mapping.of_mapping plain in
  (match Deal_mapping.to_mapping deal with
  | Some back -> Alcotest.(check bool) "roundtrip" true (Mapping.equal plain back)
  | None -> Alcotest.fail "embedding lost");
  let replicated = Deal_mapping.replicate deal ~j:0 ~proc:2 in
  Alcotest.(check bool) "replicated is not plain" true
    (Deal_mapping.to_mapping replicated = None)

let test_deal_replicate_rejects_used () =
  let d = mk_deal () in
  Alcotest.check_raises "enrolled twice"
    (Invalid_argument "Deal_mapping.replicate: processor enrolled twice")
    (fun () -> ignore (Deal_mapping.replicate d ~j:0 ~proc:1))

(* ------------------------------------------------------------------ *)
(* Cost's deal layer                                                   *)
(* ------------------------------------------------------------------ *)

(* Sanity bridge: on an unreplicated mapping the round-robin and
   weighted deal periods and the deal latency agree with the plain cost
   model. *)
let consistent_with_plain (inst : Instance.t) plain =
  let cost = Cost.get inst.app inst.platform in
  let deal = Deal_mapping.of_mapping plain in
  let eq a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1. (Float.abs a) in
  eq (Cost.deal_period cost deal) (Cost.period cost plain)
  && eq (Cost.deal_period_weighted cost deal) (Cost.period cost plain)
  && eq (Cost.deal_latency cost deal) (Cost.latency cost plain)

let test_metrics_consistent_with_plain () =
  List.iter
    (fun seed ->
      let inst = Helpers.random_instance seed in
      let n = Application.n inst.Instance.app in
      let p = Platform.p inst.Instance.platform in
      let mapping =
        if n >= 2 && p >= 2 then Mapping.of_cuts ~n ~cuts:[ n / 2 ] ~procs:[ 0; 1 ]
        else Mapping.single ~n ~proc:0
      in
      Alcotest.(check bool) "consistent" true
        (consistent_with_plain inst mapping))
    (Helpers.seeds 20)

let test_metrics_replication_divides_period () =
  (* One heavy stage on speed-2 and speed-2 replicas: dealing halves the
     period; latency keeps the worst replica. *)
  let app = Application.make ~deltas:[| 0.; 0. |] [| 12. |] in
  let platform = Platform.comm_homogeneous ~bandwidth:1. [| 2.; 2. |] in
  let inst = Instance.make app platform in
  let solo = Deal_mapping.make ~n:1 [ (Interval.singleton 1, [ 0 ]) ] in
  let dealt = Deal_mapping.make ~n:1 [ (Interval.singleton 1, [ 0; 1 ]) ] in
  Helpers.check_float "solo period" 6. (Cost.deal_period (Cost.get inst.Instance.app inst.Instance.platform) solo);
  Helpers.check_float "dealt period" 3. (Cost.deal_period (Cost.get inst.Instance.app inst.Instance.platform) dealt);
  Helpers.check_float "latency unchanged" 6. (Cost.deal_latency (Cost.get inst.Instance.app inst.Instance.platform) dealt)

let test_metrics_round_robin_vs_weighted () =
  (* Heterogeneous replicas: round-robin is paced by the slow one, the
     weighted deal adds the rates. *)
  let app = Application.make ~deltas:[| 0.; 0. |] [| 12. |] in
  let platform = Platform.comm_homogeneous ~bandwidth:1. [| 6.; 2. |] in
  let inst = Instance.make app platform in
  let dealt = Deal_mapping.make ~n:1 [ (Interval.singleton 1, [ 0; 1 ]) ] in
  (* cycles: 2 and 6; round robin: 6/2 = 3; weighted: 1/(1/2 + 1/6) = 1.5 *)
  Helpers.check_float "round robin" 3. (Cost.deal_period (Cost.get inst.Instance.app inst.Instance.platform) dealt);
  Helpers.check_float "weighted" 1.5 (Cost.deal_period_weighted (Cost.get inst.Instance.app inst.Instance.platform) dealt)

let prop_weighted_never_slower =
  Helpers.qtest "weighted deal period <= round-robin period" gen_seed
    (fun seed ->
      let inst = Helpers.random_instance seed in
      let n = Application.n inst.Instance.app in
      let p = Platform.p inst.Instance.platform in
      let mapping =
        if p >= 2 then
          Deal_mapping.make ~n [ (Interval.make ~first:1 ~last:n, [ 0; 1 ]) ]
        else Deal_mapping.make ~n [ (Interval.make ~first:1 ~last:n, [ 0 ]) ]
      in
      Cost.deal_period_weighted (Cost.get inst.Instance.app inst.Instance.platform) mapping
      <= Cost.deal_period (Cost.get inst.Instance.app inst.Instance.platform) mapping +. 1e-9)

let prop_weighted_replication_never_hurts =
  (* Round-robin CAN get slower when the extra replica is much slower
     (the slow replica paces its whole round); the weighted deal never
     does — its rate is the sum of the replicas' rates. *)
  Helpers.qtest "adding a replica never increases the weighted period" gen_seed
    (fun seed ->
      let inst = Helpers.random_instance seed in
      let p = Platform.p inst.Instance.platform in
      let n = Application.n inst.Instance.app in
      p < 2
      ||
      let solo = Deal_mapping.make ~n [ (Interval.make ~first:1 ~last:n, [ 0 ]) ] in
      let dealt = Deal_mapping.replicate solo ~j:0 ~proc:1 in
      Cost.deal_period_weighted (Cost.get inst.Instance.app inst.Instance.platform) dealt
      <= Cost.deal_period_weighted (Cost.get inst.Instance.app inst.Instance.platform) solo +. 1e-9)

let test_round_robin_slower_replica_can_hurt () =
  (* cycles 2 and 20: solo period 2, dealt round-robin period 10. *)
  let app = Application.make ~deltas:[| 0.; 0. |] [| 20. |] in
  let platform = Platform.comm_homogeneous ~bandwidth:1. [| 10.; 1. |] in
  let inst = Instance.make app platform in
  let solo = Deal_mapping.make ~n:1 [ (Interval.singleton 1, [ 0 ]) ] in
  let dealt = Deal_mapping.replicate solo ~j:0 ~proc:1 in
  Helpers.check_float "solo" 2. (Cost.deal_period (Cost.get inst.Instance.app inst.Instance.platform) solo);
  Helpers.check_float "dealt is worse" 10. (Cost.deal_period (Cost.get inst.Instance.app inst.Instance.platform) dealt)

(* ------------------------------------------------------------------ *)
(* Deal_heuristic                                                      *)
(* ------------------------------------------------------------------ *)

let heavy_stage_instance () =
  (* Stage 2 dominates: interval splitting cannot push the period below
     its cycle-time, but dealing can. *)
  let app = Application.make ~deltas:[| 1.; 1.; 1.; 1. |] [| 2.; 100.; 2. |] in
  let platform = Platform.comm_homogeneous ~bandwidth:10. [| 5.; 5.; 5.; 5. |] in
  Instance.make app platform

let test_deal_beats_pure_splitting () =
  let inst = heavy_stage_instance () in
  (* Pure splitting floor: the heavy stage alone costs 0.1 + 20 + 0.1. *)
  let splitting_floor = 20.2 in
  let target = 11. in
  Alcotest.(check bool) "H1 cannot reach below the heavy stage" true
    (Pipeline_core.Sp_mono_p.solve inst ~period:target = None);
  match Deal_heuristic.minimise_latency_under_period inst ~period:target with
  | None -> Alcotest.fail "deal heuristic should succeed"
  | Some sol ->
    Alcotest.(check bool) "period below the splitting floor" true
      (sol.Deal_heuristic.period < splitting_floor);
    Alcotest.(check bool) "meets the target" true
      (sol.Deal_heuristic.period <= target +. 1e-9)

let prop_deal_heuristic_sound =
  Helpers.qtest ~count:60 "deal solutions respect the period threshold"
    QCheck2.Gen.(pair gen_seed (float_range 0.3 1.2))
    (fun (seed, scale) ->
      let inst = Helpers.random_instance seed in
      let threshold = Instance.single_proc_period inst *. scale in
      match Deal_heuristic.minimise_latency_under_period inst ~period:threshold with
      | None -> true
      | Some sol ->
        Deal_mapping.valid_on sol.Deal_heuristic.mapping inst.Instance.platform
        && sol.Deal_heuristic.period
           <= threshold +. (1e-9 *. Float.max 1. threshold))

let prop_deal_no_worse_than_h1 =
  Helpers.qtest ~count:60 "deal succeeds whenever H1 does"
    QCheck2.Gen.(pair gen_seed (float_range 0.3 1.2))
    (fun (seed, scale) ->
      let inst = Helpers.random_instance seed in
      let threshold = Instance.single_proc_period inst *. scale in
      match Pipeline_core.Sp_mono_p.solve inst ~period:threshold with
      | None -> true
      | Some _ ->
        Deal_heuristic.minimise_latency_under_period inst ~period:threshold <> None)

(* Seed 332 at 0.7 x the single-processor period (threshold 6.856): the
   greedy replicates [1..10] on the two fastest processors, because
   period 7.1 beats the best split's 7.42, and is then stuck — a
   replicated interval cannot be split and a third replica raises the
   round-robin period to 8.3. H1 splits twice and reaches 6.3. *)
let test_deal_stuck_falls_back_on_h1 () =
  let inst = Helpers.random_instance 332 in
  let period = Instance.single_proc_period inst *. 0.7 in
  Alcotest.(check bool) "H1 succeeds" true
    (Pipeline_core.Sp_mono_p.solve inst ~period <> None);
  match Deal_heuristic.minimise_latency_under_period inst ~period with
  | None -> Alcotest.fail "deal failed where H1 succeeds"
  | Some sol ->
    Alcotest.(check bool) "meets the threshold" true
      (sol.Deal_heuristic.period <= period +. (1e-9 *. Float.max 1. period))

let prop_deal_latency_fixed_sound =
  Helpers.qtest ~count:40 "deal latency-fixed respects the budget"
    QCheck2.Gen.(pair gen_seed (float_range 1.0 2.0))
    (fun (seed, scale) ->
      let inst = Helpers.random_instance seed in
      let budget = Instance.optimal_latency inst *. scale in
      match Deal_heuristic.minimise_period_under_latency inst ~latency:budget with
      | None -> false
      | Some sol -> sol.Deal_heuristic.latency <= budget +. (1e-9 *. budget))

(* ------------------------------------------------------------------ *)
(* Deal_sim                                                            *)
(* ------------------------------------------------------------------ *)

let test_sim_matches_analytic_plain () =
  let inst = Helpers.small_instance () in
  let plain = Mapping.of_cuts ~n:4 ~cuts:[ 2 ] ~procs:[ 1; 0 ] in
  let deal = Deal_mapping.of_mapping plain in
  let result = Deal_sim.run inst deal ~datasets:200 in
  Helpers.check_float "plain deal sim = metrics period"
    (Cost.period (Cost.get inst.Instance.app inst.Instance.platform) plain)
    result.Deal_sim.steady_period;
  Helpers.check_float "first latency = metrics latency"
    (Cost.latency (Cost.get inst.Instance.app inst.Instance.platform) plain)
    result.Deal_sim.first_latency

let prop_sim_matches_analytic_deal =
  Helpers.qtest ~count:40 "deal sim steady period = analytic round-robin"
    gen_seed
    (fun seed ->
      let inst = Helpers.random_instance seed in
      let n = Application.n inst.Instance.app in
      let p = Platform.p inst.Instance.platform in
      let rng = Rng.create (seed + 31) in
      (* Random deal mapping: random plain mapping, then replicate random
         intervals with leftover processors. *)
      let m = 1 + Rng.int rng (min n p) in
      let cuts =
        if m = 1 then []
        else begin
          let positions = Array.init (n - 1) (fun i -> i + 1) in
          Rng.shuffle rng positions;
          List.sort compare (Array.to_list (Array.sub positions 0 (m - 1)))
        end
      in
      let perm = Rng.permutation rng p in
      let procs = Array.to_list (Array.sub perm 0 m) in
      let deal =
        ref (Deal_mapping.of_mapping (Mapping.of_cuts ~n ~cuts ~procs))
      in
      for extra = m to p - 1 do
        if Rng.bool rng then
          deal := Deal_mapping.replicate !deal ~j:(Rng.int rng m) ~proc:perm.(extra)
      done;
      let result = Deal_sim.run inst !deal ~datasets:800 in
      let analytic = Cost.deal_period (Cost.get inst.Instance.app inst.Instance.platform) !deal in
      (* The slope estimator reads the running-max completion over the
         second half; its granularity is one full deal round, so allow an
         O(r/K) sampling error. *)
      Helpers.feq ~eps:0.02 result.Deal_sim.steady_period analytic)


(* ------------------------------------------------------------------ *)
(* Deal_exhaustive                                                     *)
(* ------------------------------------------------------------------ *)

let gen_tiny =
  QCheck2.Gen.map
    (fun seed -> Helpers.random_instance ~n_max:3 ~p_max:3 seed)
    gen_seed

let prop_heuristic_dominated_by_exhaustive =
  Helpers.qtest ~count:25 "deal heuristic >= exhaustive deal optimum" gen_tiny
    (fun inst ->
      let opt = Deal_exhaustive.min_period inst in
      match
        Deal_heuristic.minimise_period_under_latency inst ~latency:infinity
      with
      | None -> false
      | Some h -> h.Deal_heuristic.period >= opt.Deal_heuristic.period -. 1e-9)

let prop_exhaustive_no_worse_than_plain =
  Helpers.qtest ~count:25 "deal optimum <= plain interval optimum" gen_tiny
    (fun inst ->
      let deal_opt = Deal_exhaustive.min_period inst in
      let plain = Pipeline_optimal.Exhaustive.min_period inst in
      deal_opt.Deal_heuristic.period
      <= plain.Pipeline_core.Solution.period +. 1e-9)

let test_exhaustive_replicates_hot_stage () =
  (* Single heavy stage, two equal machines: replication is optimal. *)
  let app = Application.make ~deltas:[| 0.; 0. |] [| 12. |] in
  let platform = Platform.comm_homogeneous ~bandwidth:1. [| 2.; 2. |] in
  let inst = Instance.make app platform in
  let opt = Deal_exhaustive.min_period inst in
  Helpers.check_float "halved" 3. opt.Deal_heuristic.period;
  Alcotest.(check int) "two replicas" 2
    (Deal_mapping.replication opt.Deal_heuristic.mapping 0)

let test_exhaustive_guard () =
  let app = Application.uniform ~n:12 ~work:1. ~delta:1. in
  let platform = Platform.comm_homogeneous ~bandwidth:1. (Array.make 12 1.) in
  Alcotest.(check bool) "guarded" true
    (try
       ignore (Deal_exhaustive.min_period (Instance.make app platform));
       false
     with Invalid_argument _ -> true)

(* The task-tree fan-out must return the very same solution (mapping
   included, ties and all) as the sequential scan — at every pool width
   and every frontier size (DESIGN.md §14). *)
let with_jobs jobs f =
  let saved = Pipeline_util.Pool.jobs () in
  Pipeline_util.Pool.set_jobs jobs;
  Fun.protect ~finally:(fun () -> Pipeline_util.Pool.set_jobs saved) f

let with_tree_cap cap f =
  let saved = Pipeline_util.Pool.tree_cap () in
  Pipeline_util.Pool.set_tree_cap cap;
  Fun.protect ~finally:(fun () -> Pipeline_util.Pool.set_tree_cap saved) f

let prop_exhaustive_parallel_bit_identical =
  Helpers.qtest ~count:25
    "deal exhaustive: any (tree cap, jobs) = sequential (bit-for-bit)"
    QCheck2.Gen.(
      triple gen_tiny (oneofl [ 1; 2; 9; 512 ]) (oneofl [ 1; 4; 8 ]))
    (fun (inst, cap, jobs) ->
      Stdlib.compare
        (with_tree_cap 1 (fun () ->
             with_jobs 1 (fun () -> Deal_exhaustive.min_period inst)))
        (with_tree_cap cap (fun () ->
             with_jobs jobs (fun () -> Deal_exhaustive.min_period inst)))
      = 0)

let () =
  Alcotest.run "deal"
    [
      ( "mapping",
        [
          Alcotest.test_case "basics" `Quick test_deal_mapping_basics;
          Alcotest.test_case "rejects" `Quick test_deal_mapping_rejects;
          Alcotest.test_case "embedding" `Quick test_deal_mapping_embedding;
          Alcotest.test_case "replicate rejects used" `Quick
            test_deal_replicate_rejects_used;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "consistent with plain" `Quick
            test_metrics_consistent_with_plain;
          Alcotest.test_case "replication divides period" `Quick
            test_metrics_replication_divides_period;
          Alcotest.test_case "round-robin vs weighted" `Quick
            test_metrics_round_robin_vs_weighted;
          prop_weighted_never_slower;
          prop_weighted_replication_never_hurts;
          Alcotest.test_case "slower replica can hurt round-robin" `Quick
            test_round_robin_slower_replica_can_hurt;
        ] );
      ( "heuristic",
        [
          Alcotest.test_case "beats pure splitting" `Quick test_deal_beats_pure_splitting;
          prop_deal_heuristic_sound;
          prop_deal_no_worse_than_h1;
          Alcotest.test_case "stuck greedy falls back on H1" `Quick
            test_deal_stuck_falls_back_on_h1;
          prop_deal_latency_fixed_sound;
        ] );
      ( "exhaustive",
        [
          prop_heuristic_dominated_by_exhaustive;
          prop_exhaustive_no_worse_than_plain;
          Alcotest.test_case "replicates hot stage" `Quick
            test_exhaustive_replicates_hot_stage;
          Alcotest.test_case "guard" `Quick test_exhaustive_guard;
          prop_exhaustive_parallel_bit_identical;
        ] );
      ( "simulation",
        [
          Alcotest.test_case "plain agreement" `Quick test_sim_matches_analytic_plain;
          prop_sim_matches_analytic_deal;
        ] );
    ]
