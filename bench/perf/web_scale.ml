(* ROADMAP's web-size path: E6 instances far past the candidate
   materialisation cap, where the cost engine, Nicol's chains solver and
   the lazy candidate lattice dominate. *)

open Pipeline_model
module Scaling = Pipeline_experiments.Scaling

(* The ladder's 20 000 × 400 rung rather than its 50 000 × 1 000 top:
   about a third of E6 instances finish the lazy search 3× faster than
   the rest, at either size, so a lap needs many instances to hold a
   steady mix. The top rung fits four per lap, this one ten. *)
let size ~smoke = if smoke then (2_000, 40) else (20_000, 400)

(* Each sample gets its own E6 instance. *)
let instance ~seed ~n ~p i = Scaling.instance ~seed:(Hashtbl.hash (seed, i)) ~n ~p

(* H1's threshold over the relaxed optimum. At 2× H1 needs nearly every
   processor and runs out on about half the seeds; 2.5× never did in the
   seeds tried. *)
let h1_factor = 2.5

(* The relaxed optimum, then H1 above it. Returns the outputs the check
   needs: H1 meets its threshold, and no interval mapping beats the
   relaxation. *)
let solve (inst : Instance.t) ~p =
  let cost =
    Span.run "cost.engine_build" (fun () -> Cost.get inst.app inst.platform)
  in
  let nicol, _ =
    Span.run "chains.nicol" (fun () ->
        Chains.Nicol.solve (Application.works inst.app) ~p)
  in
  let relaxed, _, _ =
    Span.run "threshold.lazy_search" (fun () ->
        Scaling.exact_relaxed_min_period cost ~p)
  in
  let threshold = h1_factor *. relaxed in
  let h1 =
    Span.run "core.h1" (fun () -> Pipeline_core.Sp_mono_p.solve inst ~period:threshold)
  in
  (nicol, relaxed, threshold, h1)

let check (_, relaxed, threshold, h1) =
  match h1 with
  | None -> false
  | Some (sol : Pipeline_core.Solution.t) ->
    Pipeline_util.Tol.meets sol.period threshold && relaxed <= sol.period

let render (nicol, relaxed, _, h1) =
  match h1 with
  | None -> Printf.sprintf "%h %h none" nicol relaxed
  | Some (sol : Pipeline_core.Solution.t) ->
    Printf.sprintf "%h %h %h %h" nicol relaxed sol.period sol.latency

let setup ~seed ~smoke ~trace:_ =
  let n, p = size ~smoke in
  (* Warm-up lap: one instance at a quarter of the size. *)
  let warm =
    solve (instance ~seed:Harness.warm_up_seed ~n:(n / 4) ~p:(p / 4) 0) ~p:(p / 4)
  in
  let sample i =
    let inst = instance ~seed ~n ~p i in
    fun () ->
      let out = solve inst ~p in
      fun () -> check out
  in
  let layer_metrics ~samples ~delta =
    [
      ("cost.engine_build_us", Harness.per_sample_median_us "cost.engine_build");
      ("chains.nicol_ms", Harness.per_sample_median_ms "chains.nicol");
      ("threshold.lazy_search_ms", Harness.per_sample_median_ms "threshold.lazy_search");
      ( "model.threshold.lattice_probes",
        Harness.ratio (delta "model.threshold.lattice_probes") (float_of_int samples) );
      ("core.h1_ms", Harness.per_sample_median_ms "core.h1");
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
    Harness.name = "web-scale";
    rate = 2.4;
    setup;
  }
