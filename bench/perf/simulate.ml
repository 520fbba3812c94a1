(* The simulators: the fault campaign, the streaming campaign and the
   simulator-vs-equations check on one E2 20 × 10 instance per sample.
   The discrete-event core runs in no other workload. *)

open Pipeline_model
module E = Pipeline_experiments

let size ~smoke = if smoke then (8, 4, 200) else (20, 10, 5_000)

(* H1 at the campaigns' 0.6 × single-processor period, through the
   registry. *)
let h1 (inst : Instance.t) =
  let threshold = Instance.single_proc_period inst *. 0.6 in
  (List.hd Pipeline_registry.paper).solve inst ~threshold

let h1_mapping inst =
  Option.get
    (Option.bind (h1 inst) (fun (o : Pipeline_registry.outcome) ->
         Deal_mapping.to_mapping o.mapping))

(* The first instance of sample [i]'s stream that H1 maps: the campaigns
   skip an unmapped one, which would leave only the validation to run. *)
let setup_of ~smoke ~seed i =
  let n, p, _ = size ~smoke in
  let rec find j =
    let setup =
      E.Config.default_setup ~pairs:1 ~seed:(Hashtbl.hash (seed, i, j)) E.Config.E2 ~n ~p
    in
    let inst = E.Workload.instance setup 0 in
    if h1 inst <> None then (setup, inst) else find (j + 1)
  in
  find 0

let solve ~smoke ~seed i =
  let _, _, datasets = size ~smoke in
  let setup, inst = setup_of ~smoke ~seed i in
  fun () ->
    let faults =
      Span.run "sim.fault_campaign" (fun () -> E.Fault_campaign.run ~datasets setup)
    in
    let stream = Span.run "sim.streaming" (fun () -> E.Streaming.run ~datasets setup) in
    let mapping = Span.run "core.h1" (fun () -> h1_mapping inst) in
    let report =
      Span.run "sim.validate" (fun () -> Pipeline_sim.Validate.check ~datasets inst mapping)
    in
    (faults, stream, report)

let render ((faults : E.Fault_campaign.campaign), (stream : E.Streaming.campaign), report) =
  String.concat "\n"
    [
      E.Fault_campaign.to_csv faults;
      E.Streaming.to_csv stream;
      Format.asprintf "%a" Pipeline_sim.Validate.pp report;
    ]

let setup ~seed ~smoke ~trace:_ =
  let warm = solve ~smoke ~seed:Harness.warm_up_seed 0 () in
  let sample i =
    let work = solve ~smoke ~seed i in
    fun () ->
      let _, _, report = work () in
      fun () -> Pipeline_sim.Validate.agrees report
  in
  let layer_metrics ~samples ~delta =
    let per_sample name = Harness.ratio (delta name) (float_of_int samples) in
    let sim_s =
      Span.total "sim.fault_campaign" +. Span.total "sim.streaming" +. Span.total "sim.validate"
    in
    [
      ("sim.fault_campaign_ms", Harness.per_sample_median_ms "sim.fault_campaign");
      ("sim.streaming_ms", Harness.per_sample_median_ms "sim.streaming");
      ("sim.validate_ms", Harness.per_sample_median_ms "sim.validate");
      ("des.events", per_sample "sim.des.fired");
      ("des.events_per_s", Harness.ratio (delta "sim.des.fired") sim_s);
      ("stream.resolve.warm_calls", per_sample "stream.resolve.warm_calls");
      ("stream.resolve.cold_calls", per_sample "stream.resolve.cold_calls");
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
    Harness.name = "simulate";
    rate = 13.;
    setup;
  }
