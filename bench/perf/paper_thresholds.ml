(* The paper's own evaluation (§5, Table 1): failure thresholds of the
   six heuristics on E1–E4 at p = 10. Instance k of cell (E, n) is
   exactly Table 1's k-th pair at the same seed. *)

open Pipeline_model
module E = Pipeline_experiments
module Registry = Pipeline_registry

let cells ~smoke =
  let ns = if smoke then [ 5; 10 ] else [ 5; 10; 20; 40 ] in
  Array.of_list
    (List.concat_map (fun e -> List.map (fun n -> (e, n)) ns) E.Config.all_experiments)

let rows = Array.of_list Registry.paper

(* Pair k of every cell, in cell order. *)
let instance ~seed cells k =
  let e, n = cells.(k mod Array.length cells) in
  let setup = E.Config.default_setup ~pairs:max_int ~seed e ~n ~p:10 in
  E.Workload.instance setup (k / Array.length cells)

(* The heuristic must succeed at its own threshold. Latency rows return
   the infeasible side of a converged bisection, so the re-probe adds
   the acceptance slack. *)
let check (info : Registry.info) inst t =
  let t = t +. (Pipeline_util.Tol.accept_rel *. Float.max 1. t) in
  info.solve inst ~threshold:t <> None

let threshold (info : Registry.info) inst =
  Span.run ("threshold." ^ info.id) (fun () -> E.Failure.instance_threshold info inst)

let setup ~seed ~smoke ~trace:_ =
  let cells = cells ~smoke in
  (* Warm-up lap: one pair of every cell. *)
  let warm =
    List.concat_map
      (fun k ->
        let inst = instance ~seed:Harness.warm_up_seed cells k in
        Array.to_list
          (Array.map (fun info -> Printf.sprintf "%h" (threshold info inst)) rows))
      (List.init (Array.length cells) Fun.id)
  in
  let current = ref None in
  let sample i =
    let k = i / Array.length rows in
    let inst =
      match !current with
      | Some (k', inst) when k' = k -> inst
      | _ ->
        let inst = instance ~seed cells k in
        current := Some (k, inst);
        inst
    in
    let info = rows.(i mod Array.length rows) in
    fun () ->
      if i mod Array.length rows = 0 && !Span.on then begin
        (* Attribute the engine and candidate builds the first threshold
           of an instance would otherwise pay inside its search. *)
        let cost =
          Span.run "cost.engine_build" (fun () ->
              Cost.get inst.Instance.app inst.Instance.platform)
        in
        Span.run "candidates.build" (fun () -> ignore (Candidates.periods cost))
      end;
      let t = threshold info inst in
      fun () -> check info inst t
  in
  let layer_metrics ~samples ~delta =
    let per_sample name = Harness.ratio (delta name) (float_of_int samples) in
    Array.to_list
      (Array.map
         (fun (info : Registry.info) ->
           let spans = Span.named ("threshold." ^ info.id) in
           ( "threshold.self_ms." ^ info.id,
             Harness.ratio
               (Harness.sum (List.map Span.duration spans) *. 1e3)
               (float_of_int (List.length spans)) ))
         rows)
    @ [
        ("threshold.probes_per_threshold", per_sample "experiments.threshold_probes");
        ("model.threshold.candidate_probes", per_sample "model.threshold.candidate_probes");
        ("model.threshold.bisect_probes", per_sample "model.threshold.bisect_probes");
        ("model.threshold.memo_hits", per_sample "model.threshold.memo_hits");
        ("core.sp_bi_p.bisect_iters", per_sample "core.sp_bi_p.bisect_iters");
        ("candidates.build_us", Harness.per_sample_median_us "candidates.build");
        ("cost.engine_build_us", Harness.per_sample_median_us "cost.engine_build");
      ]
  in
  {
    Harness.sample;
    replay = ignore;
    layer_metrics;
    digest = Harness.digest_of_strings warm;
    peak_rss_mb = Harness.self_peak_rss_mb;
    stop = ignore;
  }

let workload =
  {
    Harness.name = "paper-thresholds";
    rate = 300.;
    setup;
  }
