(* The unified registry (Pipeline_registry): shape, lookup, and — the
   refactor's contract — bit-identical agreement between every unified
   row and the direct per-stack call it wraps. *)

open Pipeline_model
module U = Pipeline_registry

let het_instance seed =
  let rng = Pipeline_util.Rng.create seed in
  let n = 1 + Pipeline_util.Rng.int rng 8 in
  let p = 1 + Pipeline_util.Rng.int rng 4 in
  let works =
    Array.init n (fun _ -> float_of_int (Pipeline_util.Rng.int_in rng 1 20))
  in
  let deltas =
    Array.init (n + 1) (fun _ -> float_of_int (Pipeline_util.Rng.int_in rng 0 30))
  in
  let app = Application.make ~deltas works in
  let platform = Platform_generator.fully_heterogeneous rng ~p in
  Instance.make ~seed app platform

(* ------------------------------------------------------------------ *)
(* Shape and lookup                                                    *)
(* ------------------------------------------------------------------ *)

let test_shape () =
  Alcotest.(check int) "six paper rows" 6 (List.length U.paper);
  Alcotest.(check int) "two extensions" 2 (List.length U.extended);
  Alcotest.(check int) "four het rows" 4 (List.length U.het);
  Alcotest.(check int) "two deal rows" 2 (List.length U.deal);
  Alcotest.(check int) "one ft row" 1 (List.length U.ft);
  Alcotest.(check int) "all = every stack" 15 (List.length U.all);
  (* ids are unique across the whole surface. *)
  let ids = List.map (fun (i : U.info) -> i.U.id) U.all in
  Alcotest.(check int) "unique ids" (List.length ids)
    (List.length (List.sort_uniq compare ids));
  (* Core ids are Table 1's, in its order. *)
  Alcotest.(check (list string)) "core ids preserved"
    [ "h1-sp-mono-p"; "h2-3explo-mono"; "h3-3explo-bi"; "h4-sp-bi-p";
      "h5-sp-mono-l"; "h6-sp-bi-l" ]
    (List.map (fun (i : U.info) -> i.U.id) U.paper)

let test_find () =
  (match U.find "H1" with
  | Some i -> Alcotest.(check string) "by table name" "h1-sp-mono-p" i.U.id
  | None -> Alcotest.fail "H1 not found");
  (match U.find "DEAL-SPLIT-REP-P" with
  | Some i -> Alcotest.(check bool) "deal stack" true (i.U.stack = U.Deal)
  | None -> Alcotest.fail "deal row not found");
  (match U.find "FtTri" with
  | Some i -> Alcotest.(check bool) "ft stack" true (i.U.stack = U.Ft)
  | None -> Alcotest.fail "ft row not found");
  (match U.find "het split mono, p fix" with
  | Some i -> Alcotest.(check string) "het by paper name" "het-sp-mono-p" i.U.id
  | None -> Alcotest.fail "het row not found");
  Alcotest.(check bool) "unknown" true (U.find "no-such-id" = None)

let test_outcome_roundtrip () =
  let inst = Helpers.small_instance () in
  let threshold = Instance.single_proc_period inst in
  match U.find "h1-sp-mono-p" with
  | None -> Alcotest.fail "H1 missing"
  | Some info -> (
    match info.U.solve inst ~threshold with
    | None -> Alcotest.fail "H1 should solve at the single-proc period"
    | Some o -> (
      match U.solution_of_outcome o with
      | None -> Alcotest.fail "core outcome should be a plain mapping"
      | Some sol ->
        Helpers.check_float "period copied" o.U.period sol.Pipeline_core.Solution.period;
        Helpers.check_float "latency copied" o.U.latency
          sol.Pipeline_core.Solution.latency))

(* ------------------------------------------------------------------ *)
(* Unified rows == direct per-stack calls, bit for bit                 *)
(* ------------------------------------------------------------------ *)

(* Outcomes compare with (=) — any diverging bit fails. Deal mappings
   compare by their (interval, replicas) assignment. *)
let dm_repr t =
  List.init (Deal_mapping.m t) (fun j ->
      (Deal_mapping.interval t j, Deal_mapping.replicas t j))

let same_as_direct (o : U.outcome option) direct of_direct =
  match (o, direct) with
  | None, None -> true
  | Some o, Some d ->
    let (m, p, l, f) : Deal_mapping.t * float * float * float option =
      of_direct d
    in
    dm_repr o.U.mapping = dm_repr m
    && o.U.period = p && o.U.latency = l && o.U.failure = f
  | _ -> false

let prop_core_rows_match =
  Helpers.qtest ~count:60 "core rows == Sp_*/Explo_* solvers, bitwise"
    QCheck2.Gen.(pair (int_range 0 100_000) (float_range 0.4 1.6))
    (fun (seed, scale) ->
      let inst = Helpers.random_instance seed in
      let open Pipeline_core in
      let rows =
        [
          ("h1-sp-mono-p", fun t -> Sp_mono_p.solve inst ~period:t);
          ("h2-3explo-mono", fun t -> Explo_mono.solve inst ~period:t);
          ("h3-3explo-bi", fun t -> Explo_bi.solve inst ~period:t);
          ("h4-sp-bi-p", fun t -> Sp_bi_p.solve inst ~period:t);
          ("h5-sp-mono-l", fun t -> Sp_mono_l.solve inst ~latency:t);
          ("h6-sp-bi-l", fun t -> Sp_bi_l.solve inst ~latency:t);
          ("h2x-3explo-mono-fb", fun t -> Explo_fallback.solve_mono inst ~period:t);
          ("h3x-3explo-bi-fb", fun t -> Explo_fallback.solve_bi inst ~period:t);
        ]
      in
      List.for_all2
        (fun (u : U.info) (id, direct) ->
          let threshold =
            match u.U.kind with
            | U.Period_fixed -> Instance.single_proc_period inst *. scale
            | U.Latency_fixed ->
              Instance.optimal_latency inst *. Float.max 1. scale
          in
          u.U.id = id
          && same_as_direct
               (u.U.solve inst ~threshold)
               (direct threshold)
               (fun (s : Solution.t) ->
                 (Deal_mapping.of_mapping s.mapping, s.period, s.latency, None)))
        (U.paper @ U.extended) rows)

let prop_het_rows_match =
  Helpers.qtest ~count:60 "het rows == Het_heuristics, bitwise"
    QCheck2.Gen.(pair (int_range 0 100_000) (float_range 0.4 1.6))
    (fun (seed, scale) ->
      let inst = het_instance seed in
      let single = Instance.single_proc_period inst in
      let selects =
        [
          ("het-sp-mono-p", Pipeline_het.Het_heuristics.Min_period);
          ("het-sp-bi-p", Pipeline_het.Het_heuristics.Min_ratio);
          ("het-sp-mono-l", Pipeline_het.Het_heuristics.Min_period);
          ("het-sp-bi-l", Pipeline_het.Het_heuristics.Min_ratio);
        ]
      in
      List.for_all
        (fun (id, select) ->
          let info = Option.get (U.find id) in
          let threshold, direct =
            match info.U.kind with
            | U.Period_fixed ->
              let t = single *. scale in
              ( t,
                Pipeline_het.Het_heuristics.minimise_latency_under_period
                  ~select inst ~period:t )
            | U.Latency_fixed ->
              (* Any single-processor latency upper-bounds the optimum. *)
              let t = single *. Float.max 1. scale in
              ( t,
                Pipeline_het.Het_heuristics.minimise_period_under_latency
                  ~select inst ~latency:t )
          in
          same_as_direct
            (info.U.solve inst ~threshold)
            direct
            (fun (s : Pipeline_core.Solution.t) ->
              (Deal_mapping.of_mapping s.mapping, s.period, s.latency, None)))
        selects)

let prop_deal_rows_match =
  Helpers.qtest ~count:60 "deal rows == Deal_heuristic, bitwise"
    QCheck2.Gen.(pair (int_range 0 100_000) (float_range 0.4 1.6))
    (fun (seed, scale) ->
      let inst = Helpers.random_instance seed in
      let p_threshold = Instance.single_proc_period inst *. scale in
      let l_threshold = Instance.optimal_latency inst *. Float.max 1. scale in
      let of_deal (s : Pipeline_deal.Deal_heuristic.solution) =
        (s.Pipeline_deal.Deal_heuristic.mapping,
         s.Pipeline_deal.Deal_heuristic.period,
         s.Pipeline_deal.Deal_heuristic.latency,
         None)
      in
      same_as_direct
        ((Option.get (U.find "deal-split-rep-p")).U.solve inst
           ~threshold:p_threshold)
        (Pipeline_deal.Deal_heuristic.minimise_latency_under_period inst
           ~period:p_threshold)
        of_deal
      && same_as_direct
           ((Option.get (U.find "deal-split-rep-l")).U.solve inst
              ~threshold:l_threshold)
           (Pipeline_deal.Deal_heuristic.minimise_period_under_latency inst
              ~latency:l_threshold)
           of_deal)

let prop_ft_row_matches =
  Helpers.qtest ~count:60 "ft row == Ft_heuristic, bitwise"
    QCheck2.Gen.(pair (int_range 0 100_000) (float_range 0.4 1.6))
    (fun (seed, scale) ->
      let inst = Helpers.random_instance seed in
      let threshold = Instance.single_proc_period inst *. scale in
      let info = Option.get (U.find "ft-rep-tri") in
      let of_ft (s : Pipeline_ft.Ft_heuristic.solution) =
        (s.Pipeline_ft.Ft_heuristic.mapping,
         s.Pipeline_ft.Ft_heuristic.period,
         s.Pipeline_ft.Ft_heuristic.latency,
         Some s.Pipeline_ft.Ft_heuristic.failure)
      in
      let p = Platform.p inst.Instance.platform in
      (* Uniform default_fail_prob, default_failure_bound. *)
      same_as_direct
        (info.U.solve inst ~threshold)
        (Pipeline_ft.Ft_heuristic.minimise_latency inst
           (Reliability.uniform ~p U.default_fail_prob)
           ~period:threshold ~failure:U.default_failure_bound)
        of_ft)

let () =
  Alcotest.run "registry"
    [
      ( "shape",
        [
          Alcotest.test_case "stacks and ids" `Quick test_shape;
          Alcotest.test_case "find" `Quick test_find;
          Alcotest.test_case "outcome roundtrip" `Quick test_outcome_roundtrip;
        ] );
      ( "equivalence",
        [
          prop_core_rows_match;
          prop_het_rows_match;
          prop_deal_rows_match;
          prop_ft_row_matches;
        ] );
    ]
