open Pipeline_model
open Pipeline_core
open Pipeline_het
module Rng = Pipeline_util.Rng

let gen_seed = QCheck2.Gen.int_range 0 100_000

(* Small random fully heterogeneous instances. *)
let random_het_instance ?(n_max = 7) ?(p_max = 4) seed =
  let rng = Rng.create seed in
  let n = 1 + Rng.int rng n_max in
  let p = 1 + Rng.int rng p_max in
  let works = Array.init n (fun _ -> float_of_int (Rng.int_in rng 1 20)) in
  let deltas = Array.init (n + 1) (fun _ -> float_of_int (Rng.int_in rng 0 30)) in
  let app = Application.make ~deltas works in
  let platform = Platform_generator.fully_heterogeneous rng ~p in
  Instance.make ~seed app platform

let gen_het = QCheck2.Gen.map random_het_instance gen_seed

let single_proc_period (inst : Instance.t) =
  let n = Application.n inst.app in
  let best = ref infinity in
  for u = 0 to Platform.p inst.platform - 1 do
    best :=
      Float.min !best
        (Cost.period (Cost.get inst.app inst.platform) (Mapping.single ~n ~proc:u))
  done;
  !best

let optimal_latency_het (inst : Instance.t) =
  (Pipeline_optimal.Latency.solve inst).Solution.latency

(* ------------------------------------------------------------------ *)
(* Soundness                                                           *)
(* ------------------------------------------------------------------ *)

let prop_period_fixed_sound =
  Helpers.qtest ~count:60 "het period-fixed solutions respect their threshold"
    QCheck2.Gen.(pair gen_het (float_range 0.4 1.5))
    (fun (inst, scale) ->
      let threshold = single_proc_period inst *. scale in
      match Het_heuristics.minimise_latency_under_period inst ~period:threshold with
      | None -> true
      | Some sol ->
        Mapping.valid_on sol.Solution.mapping inst.Instance.platform
        && Solution.respects_period sol threshold)

let prop_latency_fixed_sound =
  Helpers.qtest ~count:60 "het latency-fixed solutions respect their threshold"
    QCheck2.Gen.(pair gen_het (float_range 1.0 2.5))
    (fun (inst, scale) ->
      let threshold = optimal_latency_het inst *. scale in
      match Het_heuristics.minimise_period_under_latency inst ~latency:threshold with
      | None -> false (* threshold >= optimal latency: must succeed *)
      | Some sol -> Solution.respects_latency sol threshold)

let prop_never_beats_exhaustive =
  Helpers.qtest ~count:30 "het heuristic period >= exhaustive optimum" gen_het
    (fun inst ->
      let opt = (Pipeline_optimal.Exhaustive.min_period inst).Solution.period in
      match
        Het_heuristics.minimise_period_under_latency inst ~latency:infinity
      with
      | None -> false
      | Some sol -> sol.Solution.period >= opt -. 1e-9)

let prop_below_optimum_fails =
  Helpers.qtest ~count:30 "het heuristic cannot beat the exhaustive optimum"
    gen_het
    (fun inst ->
      let opt = (Pipeline_optimal.Exhaustive.min_period inst).Solution.period in
      Het_heuristics.minimise_latency_under_period inst
        ~period:(opt *. 0.99 -. 1e-6)
      = None
      || opt <= 0.)

(* ------------------------------------------------------------------ *)
(* Behaviour on specific platforms                                     *)
(* ------------------------------------------------------------------ *)

let test_works_on_comm_hom_too () =
  let inst = Helpers.small_instance () in
  match Het_heuristics.minimise_latency_under_period inst ~period:8. with
  | None -> Alcotest.fail "expected a solution"
  | Some sol ->
    Alcotest.(check bool) "meets threshold" true (Solution.respects_period sol 8.)

let test_exploits_fat_links () =
  (* Three equal-speed processors; P0-P1 share a fat link, P2 hangs off a
     thin one. Large inter-stage messages make the thin link hopeless:
     splitting must choose P1 (fat link), not P2, even though the paper's
     order-by-speed rule cannot tell them apart. *)
  let app = Application.make ~deltas:[| 1.; 100.; 1. |] [| 50.; 50. |] in
  let bandwidths =
    [| [| 0.; 50.; 1. |]; [| 50.; 0.; 1. |]; [| 1.; 1.; 0. |] |]
  in
  let platform =
    Platform.fully_heterogeneous ~io_bandwidths:[| 10.; 10.; 10. |] ~bandwidths
      [| 5.; 5.; 5. |]
  in
  let inst = Instance.make app platform in
  (* One processor: period = 0.1 + 100/5 + 0.1 = 20.2. A split over the
     fat link: max cycle = 0.1 + 10 + 2 = 12.1. Over the thin link the
     transfer alone is 100. *)
  match Het_heuristics.minimise_latency_under_period inst ~period:13. with
  | None -> Alcotest.fail "expected a solution over the fat link"
  | Some sol ->
    Alcotest.(check bool) "uses P0 and P1" true
      (Mapping.uses sol.Solution.mapping 0 && Mapping.uses sol.Solution.mapping 1);
    Alcotest.(check bool) "avoids thin-linked P2" false
      (Mapping.uses sol.Solution.mapping 2)

let test_initial_mapping_considers_io () =
  (* The fastest processor has terrible I/O; the latency optimum sits on
     the slower machine with good I/O, and the het heuristic must find
     it. *)
  let app = Application.make ~deltas:[| 100.; 100. |] [| 10. |] in
  let bandwidths = [| [| 0.; 10. |]; [| 10.; 0. |] |] in
  let platform =
    Platform.fully_heterogeneous ~io_bandwidths:[| 1.; 100. |] ~bandwidths
      [| 20.; 10. |]
  in
  let inst = Instance.make app platform in
  (* P0 (fast, io 1): 100 + 0.5 + 100 = 200.5; P1 (slower, io 100):
     1 + 1 + 1 = 3. *)
  match Het_heuristics.minimise_period_under_latency inst ~latency:10. with
  | None -> Alcotest.fail "expected the good-I/O machine"
  | Some sol -> Alcotest.(check int) "P1 chosen" 1 (Mapping.proc sol.Solution.mapping 0)

(* More latency budget can raise the period: the larger budget admits a
   higher-latency split early on, and the greedy never revisits it. Two
   of the draws where this happens, pinned at 1.2 and 2.0 x L_opt. *)
let test_budget_not_monotone () =
  List.iter
    (fun (seed, at_1_2, at_2_0) ->
      let inst = random_het_instance seed in
      let lopt = optimal_latency_het inst in
      let period_at factor =
        match
          Het_heuristics.minimise_period_under_latency inst ~latency:(lopt *. factor)
        with
        | Some sol -> sol.Solution.period
        | None -> infinity
      in
      Helpers.check_float (Printf.sprintf "seed %d at 1.2 x L_opt" seed) at_1_2
        (period_at 1.2);
      Helpers.check_float (Printf.sprintf "seed %d at 2.0 x L_opt" seed) at_2_0
        (period_at 2.0))
    [ (73616, 4.4444444444444446, 6.1717171717171713);
      (1681, 4.979166666666667, 5.2272727272727266) ]

let prop_bi_variant_sound =
  Helpers.qtest ~count:40 "ratio-selection het variants respect thresholds"
    QCheck2.Gen.(pair gen_het (float_range 0.5 1.5))
    (fun (inst, scale) ->
      let p_threshold = single_proc_period inst *. scale in
      let l_threshold = optimal_latency_het inst *. Float.max 1. scale in
      (match
         Het_heuristics.minimise_latency_under_period
           ~select:Het_heuristics.Min_ratio inst ~period:p_threshold
       with
      | None -> true
      | Some sol -> Solution.respects_period sol p_threshold)
      &&
      match
        Het_heuristics.minimise_period_under_latency
          ~select:Het_heuristics.Min_ratio inst ~latency:l_threshold
      with
      | None -> false
      | Some sol -> Solution.respects_latency sol l_threshold)

(* The four packaged het rows now live in the unified registry. *)
let test_het_registry_shape () =
  let module U = Pipeline_registry in
  Alcotest.(check int) "four entries" 4 (List.length U.het);
  let kinds = List.map (fun (i : U.info) -> i.U.kind) U.het in
  Alcotest.(check int) "two period-fixed" 2
    (List.length (List.filter (fun k -> k = U.Period_fixed) kinds));
  Alcotest.(check bool) "all het stack" true
    (List.for_all (fun (i : U.info) -> i.U.stack = U.Het) U.het);
  (* The registry entries actually solve. *)
  let inst = Helpers.small_instance () in
  List.iter
    (fun (info : U.info) ->
      let threshold =
        match info.U.kind with
        | U.Period_fixed -> Pipeline_model.Instance.single_proc_period inst
        | U.Latency_fixed -> Pipeline_model.Instance.optimal_latency inst
      in
      Alcotest.(check bool)
        (info.U.id ^ " solves at the trivial threshold")
        true
        (info.U.solve inst ~threshold <> None))
    U.het

let () =
  Alcotest.run "het"
    [
      ( "soundness",
        [
          prop_period_fixed_sound;
          prop_latency_fixed_sound;
          prop_never_beats_exhaustive;
          prop_below_optimum_fails;
        ] );
      ( "variants",
        [
          prop_bi_variant_sound;
          Alcotest.test_case "registry" `Quick test_het_registry_shape;
        ] );
      ( "behaviour",
        [
          Alcotest.test_case "comm-hom accepted" `Quick test_works_on_comm_hom_too;
          Alcotest.test_case "exploits fat links" `Quick test_exploits_fat_links;
          Alcotest.test_case "initial considers io" `Quick
            test_initial_mapping_considers_io;
          Alcotest.test_case "more latency budget can raise the period" `Quick
            test_budget_not_monotone;
        ] );
    ]
