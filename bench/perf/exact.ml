(* The exact oracles: exhaustive enumeration, branch-and-bound and the
   deal enumerator, which run in no other workload. *)

module E = Pipeline_experiments
module Exhaustive = Pipeline_optimal.Exhaustive
module Branch_bound = Pipeline_optimal.Branch_bound

(* Sizes: the plain enumerators at n = 9, p = 6; the deal enumerator at
   6 × 4 (7 × 4 is past its guard); branch-and-bound past the subset
   DP's p <= 16 ceiling at 12 × 100. Most 12 × 100 searches end within
   2 ms; a quarter to a third run on, to 0.3–0.6 s under a 500 000-node
   budget. A 50 000-node budget holds those to ~60 ms, so how many a lap
   draws no longer decides its time. *)
let sizes ~smoke =
  if smoke then ((6, 4), (4, 3), (8, 20), 5_000) else ((9, 6), (6, 4), (12, 100), 50_000)

let e2 ~seed ~n ~p i =
  E.Workload.instance (E.Config.default_setup ~pairs:max_int ~seed E.Config.E2 ~n ~p) i

let same a b = Pipeline_util.Tol.meets a b && Pipeline_util.Tol.meets b a

type out = {
  plain : float;  (* Exhaustive.min_period *)
  front : float;  (* smallest Pareto period *)
  bnb : float;
  deal : float;
  deal_plain : float;  (* Exhaustive.min_period on the deal instance *)
  big : float;  (* branch-and-bound at 12 × 100 *)
}

let solve ~smoke ~seed i =
  let (n, p), (dn, dp), (bn, bp), budget = sizes ~smoke in
  let inst = e2 ~seed ~n ~p i in
  let dinst = e2 ~seed:(seed + 1) ~n:dn ~p:dp i in
  let big = E.Scaling.bnb_instance ~seed:(Hashtbl.hash (seed, i)) ~n:bn ~p:bp in
  fun () ->
    let period (s : Pipeline_core.Solution.t) = s.period in
    let plain = Span.run "exhaustive.min_period" (fun () -> Exhaustive.min_period inst) in
    let front = Span.run "exhaustive.pareto" (fun () -> Exhaustive.pareto inst) in
    let bnb = Span.run "bnb" (fun () -> Branch_bound.min_period inst) in
    let deal = Span.run "deal.exhaustive" (fun () -> Pipeline_deal.Deal_exhaustive.min_period dinst) in
    let deal_plain = Span.run "exhaustive.min_period" (fun () -> Exhaustive.min_period dinst) in
    let big = Span.run "bnb" (fun () -> Branch_bound.min_period ~node_budget:budget big) in
    {
      plain = period plain;
      front = (match front with s :: _ -> period s | [] -> nan);
      bnb = period bnb.solution;
      deal = deal.Pipeline_deal.Deal_heuristic.period;
      deal_plain = period deal_plain;
      big = period big.solution;
    }

let check o =
  same o.bnb o.plain && same o.front o.plain
  && Pipeline_util.Tol.meets o.deal o.deal_plain
  && Float.is_finite o.big

let render o =
  Printf.sprintf "%h %h %h %h %h %h" o.plain o.front o.bnb o.deal o.deal_plain o.big

let setup ~seed ~smoke ~trace:_ =
  let warm = solve ~smoke ~seed:Harness.warm_up_seed 0 () in
  let sample i =
    let work = solve ~smoke ~seed i in
    fun () ->
      let o = work () in
      fun () -> check o
  in
  let layer_metrics ~samples ~delta =
    let exhaustive_s = Span.total "exhaustive.min_period" +. Span.total "exhaustive.pareto" in
    let bnb_s = Span.total "bnb" in
    let nodes = delta "optimal.bb.nodes" and pruned = delta "optimal.bb.pruned" in
    [
      ("exhaustive.min_period_ms", Harness.per_sample_median_ms "exhaustive.min_period");
      ("exhaustive.pareto_ms", Harness.per_sample_median_ms "exhaustive.pareto");
      ( "exhaustive.mappings_per_s",
        Harness.ratio (delta "optimal.exhaustive.mappings") exhaustive_s );
      ("bnb.ms", Harness.per_sample_median_ms "bnb");
      ("bnb.nodes_per_s", Harness.ratio nodes bnb_s);
      ("bnb.prune_ratio", Harness.ratio pruned (nodes +. pruned));
      ("deal.exhaustive_ms", Harness.per_sample_median_ms "deal.exhaustive");
      ("pool.tree.tasks", Harness.ratio (delta "pool.tree.tasks") (float_of_int samples));
    ]
  in
  {
    Harness.sample;
    replay = ignore;
    layer_metrics;
    digest = Harness.digest_of_strings [ render warm ];
    peak_rss_mb = Harness.self_peak_rss_mb;
    stop = ignore;
  }

let workload =
  {
    Harness.name = "exact";
    rate = 3.;
    setup;
  }
