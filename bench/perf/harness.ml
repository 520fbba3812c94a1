(* The measurement shared by every workload: repeated set-up, three
   untraced laps that yield the end-to-end metrics, and an optional
   traced lap that yields the per-layer metrics.

   A lap is a fixed, seeded list of samples. Every lap runs the same
   samples, and a sample's latency is its fastest lap. The host this was
   calibrated on shares its caches with other tenants: memory-bound code
   slows by up to 1.6x for seconds at a time while a register-only loop
   keeps its speed, and CPU time slows with wall-clock. In one ten-seed
   comparison the fastest of three laps cut the run-to-run spread of
   throughput from 13–42 % (one lap) to 4–19 % on five of the six
   workloads. *)

(* A workload after its set-up. *)
type run = {
  sample : int -> unit -> unit -> bool;
      (** [sample i] builds the inputs of sample [i] from the seed, as
          fresh values, so no cache keyed on physical equality carries
          work from one lap to the next. Applying the result does the
          sample's work — the timed part — and returns the check of its
          outputs, run untimed. *)
  replay : int -> unit;
      (** Traced lap only, right after sample [i]: extra in-process
          calls that split the sample's time into layers. *)
  layer_metrics : samples:int -> delta:(string -> float) -> (string * float) list;
      (** The workload's own per-layer metrics over the traced lap, from
          {!Span} and [delta] (counter growth over the lap). *)
  digest : string;  (** digest of the warm-up lap's outputs *)
  peak_rss_mb : unit -> float;
  stop : unit -> unit;
}

type t = {
  name : string;
  rate : float;
      (** samples per second on the calibration host: a lap is a third
          of [--seconds] at this rate *)
  setup : seed:int -> smoke:bool -> trace:bool -> run;
      (** [trace]: the run will have a traced lap, so the set-up also
          warms whatever the replay needs. *)
}

let laps = 3

(* Warm-up laps draw their inputs from this seed, whatever [--seed] is
   (except where the warm-up is the working set itself), so [setup_s]
   times the same work on every run. *)
let warm_up_seed = 0

(* The end-to-end metrics, in BENCHMARK.json order. *)
let end_to_end =
  [
    ("throughput_per_s", "1/s");
    ("latency_p50_ms", "ms");
    ("latency_p99_ms", "ms");
    ("setup_s", "s");
    ("peak_rss_mb", "MiB");
  ]

(* Every per-layer metric, in BENCHMARK.json order. A traced run prints
   all of them; a layer the workload never calls reads 0. Counter-based
   metrics are per sample, so they do not grow with the lap length. *)
let per_layer =
  [
    ("http.transport_us", "us");
    ("protocol.handle_us", "us");
    ("json.decode_us", "us");
    ("json.encode_us", "us");
    ("json.request_bytes", "bytes");
    ("json.response_bytes", "bytes");
    ("cache.canonical_us", "us");
    ("cache.platform_hit_ratio", "ratio");
    ("cache.evictions", "count/sample");
    ("cost.engine_builds_per_req", "count");
    ("candidates.builds_per_req", "count");
    ("registry.solve_us", "us");
    ("threshold.self_ms.h1-sp-mono-p", "ms");
    ("threshold.self_ms.h2-3explo-mono", "ms");
    ("threshold.self_ms.h3-3explo-bi", "ms");
    ("threshold.self_ms.h4-sp-bi-p", "ms");
    ("threshold.self_ms.h5-sp-mono-l", "ms");
    ("threshold.self_ms.h6-sp-bi-l", "ms");
    ("threshold.probes_per_threshold", "count");
    ("model.threshold.candidate_probes", "count/sample");
    ("model.threshold.bisect_probes", "count/sample");
    ("model.threshold.memo_hits", "count/sample");
    ("core.sp_bi_p.bisect_iters", "count/sample");
    ("candidates.build_us", "us");
    ("cost.engine_build_us", "us");
    ("chains.nicol_ms", "ms");
    ("threshold.lazy_search_ms", "ms");
    ("model.threshold.lattice_probes", "count/sample");
    ("core.h1_ms", "ms");
    ("exhaustive.min_period_ms", "ms");
    ("exhaustive.pareto_ms", "ms");
    ("exhaustive.mappings_per_s", "1/s");
    ("bnb.ms", "ms");
    ("bnb.nodes_per_s", "1/s");
    ("bnb.prune_ratio", "ratio");
    ("deal.exhaustive_ms", "ms");
    ("pool.tree.tasks", "count/sample");
    ("sim.fault_campaign_ms", "ms");
    ("sim.streaming_ms", "ms");
    ("sim.validate_ms", "ms");
    ("des.events", "count/sample");
    ("des.events_per_s", "1/s");
    ("stream.resolve.warm_calls", "count/sample");
    ("stream.resolve.cold_calls", "count/sample");
    ("gc.alloc_mb_per_sample", "MiB");
    ("gc.minor_mb_per_sample", "MiB");
    ("gc.major_collections", "count/sample");
    ("trace.overhead_pct", "%");
    ("trace.unattributed_pct", "%");
  ]

(* ------------------------------------------------------------------ *)
(* Small statistics                                                    *)
(* ------------------------------------------------------------------ *)

(* Nearest-rank quantile; a failed sample enters as +infinity. *)
let quantile q values =
  let a = Array.of_list values in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let median values = quantile 0.5 values
let sum values = List.fold_left ( +. ) 0. values
let ratio num den = if den = 0. then 0. else num /. den

(* Median over samples of a layer's time per sample (0 when the layer
   never ran). *)
let per_sample_median name =
  match Span.per_sample name with [] -> 0. | l -> median l

let per_sample_median_us name = per_sample_median name *. 1e6
let per_sample_median_ms name = per_sample_median name *. 1e3

(* ------------------------------------------------------------------ *)
(* Process facts                                                       *)
(* ------------------------------------------------------------------ *)

(* [VmHWM] of a process, in MiB: the peak resident set. *)
let peak_rss_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%s/status" pid) in
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
      Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

let self_peak_rss_mb () = peak_rss_mb "self"

let digest_of_strings strings =
  Digest.to_hex (Digest.string (String.concat "\n" strings))

(* ------------------------------------------------------------------ *)
(* Laps                                                                *)
(* ------------------------------------------------------------------ *)

type lap = {
  latency : float array;  (* seconds per sample; +infinity if it failed *)
  busy : float;  (* time inside the timed work and the replays *)
}

(* An output check is not part of the work: it stays out of the
   counters too. *)
let untimed_check check =
  let metrics = Obs.metrics_enabled () in
  Obs.set_metrics false;
  Fun.protect check ~finally:(fun () -> Obs.set_metrics metrics)

let run_lap run ~size ~replay =
  let latency = Array.make size infinity in
  let busy = ref 0. in
  for i = 0 to size - 1 do
    Span.set_sample i;
    let work = run.sample i in
    let t0 = Unix.gettimeofday () in
    let check = work () in
    let dt = Unix.gettimeofday () -. t0 in
    if untimed_check check then latency.(i) <- dt;
    let t1 = Unix.gettimeofday () in
    if replay then run.replay i;
    busy := !busy +. dt +. (Unix.gettimeofday () -. t1)
  done;
  { latency; busy = !busy }

(* Each sample's fastest lap; +infinity if it failed in any. *)
let sample_latencies laps =
  Array.init
    (Array.length (List.hd laps).latency)
    (fun i ->
      let v = List.map (fun l -> l.latency.(i)) laps in
      if List.for_all Float.is_finite v then List.fold_left Float.min infinity v
      else infinity)

let failures lap = Array.fold_left (fun acc v -> if Float.is_finite v then acc else acc + 1) 0 lap.latency

(* One closed-loop client, so throughput is completed samples over the
   time spent in them. *)
let e2e_metrics latency ~setup_s ~peak_rss =
  let all = Array.to_list latency in
  let ok = List.filter Float.is_finite all in
  let ms q =
    let v = quantile q all *. 1e3 in
    if Float.is_finite v then v else max_float
  in
  [
    ("throughput_per_s", ratio (float_of_int (List.length ok)) (sum ok));
    ("latency_p50_ms", ms 0.5);
    ("latency_p99_ms", ms 0.99);
    ("setup_s", setup_s);
    ("peak_rss_mb", peak_rss);
  ]

(* The process-wide tallies the traced lap reports as deltas. *)
type snapshot = { counters : (string * int) list; gc : Gc.stat; alloc : float }

let snapshot () =
  { counters = Obs.metrics (); gc = Gc.quick_stat (); alloc = Gc.allocated_bytes () }

let layer_metrics run ~untraced ~traced ~before ~after =
  let delta name =
    let get s = float_of_int (Option.value (List.assoc_opt name s.counters) ~default:0) in
    get after -. get before
  in
  let samples = Array.length traced.latency in
  let per_sample v = ratio v (float_of_int samples) in
  let mib = 1024. *. 1024. in
  let word = float_of_int (Sys.word_size / 8) in
  let rows = Span.layer_table ~wall:traced.busy in
  let unattributed =
    match List.rev rows with r :: _ -> r.Span.share *. 100. | [] -> 100.
  in
  (* Per sample, the traced time over the untraced one. *)
  let slowdowns =
    List.filter Float.is_finite
      (Array.to_list (Array.mapi (fun i t -> t /. untraced.(i)) traced.latency))
  in
  let own = run.layer_metrics ~samples ~delta in
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name per_layer) then
        failwith ("per-layer metric missing from the catalogue: " ^ name))
    own;
  let generic =
    [
      ("gc.alloc_mb_per_sample", per_sample ((after.alloc -. before.alloc) /. mib));
      ( "gc.minor_mb_per_sample",
        per_sample ((after.gc.minor_words -. before.gc.minor_words) *. word /. mib) );
      ( "gc.major_collections",
        per_sample (float_of_int (after.gc.major_collections - before.gc.major_collections))
      );
      ("trace.overhead_pct", (median slowdowns -. 1.) *. 100.);
      ("trace.unattributed_pct", unattributed);
    ]
  in
  ( rows,
    List.map
      (fun (name, _) ->
        let v =
          match List.assoc_opt name own with
          | Some v -> v
          | None -> Option.value (List.assoc_opt name generic) ~default:0.
        in
        (name, v))
      per_layer )

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let unit_of name =
  match List.assoc_opt name end_to_end with
  | Some u -> u
  | None -> List.assoc name per_layer

(* The result line. Every value is a finite number: the shortest decimal
   that reads back to the measured float. *)
let result_json ~correct ~attempted ~failed metrics =
  let module Json = Pipeline_serve.Json in
  let int i = Json.Number (float_of_int i) in
  let metric (name, v) =
    ( name,
      Json.Obj
        [
          ("value", Json.Number (if Float.is_finite v then v else 0.));
          ("unit", Json.String (unit_of name));
        ] )
  in
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool correct);
         ("attempted", int attempted);
         ("failed", int failed);
         ("metrics", Json.Obj (List.map metric metrics));
       ])

type options = {
  seed : int;
  seconds : float;
  trace : bool;
  trace_out : string option;
  smoke : bool;
}

(* Set-up runs seven times, each from scratch; the median is [setup_s]
   and only the last set-up is measured. *)
let measure w o =
  let size =
    if o.smoke then 3
    else max 1 (int_of_float (Float.round (w.rate *. o.seconds /. float_of_int laps)))
  in
  let rec set_up k times =
    let t0 = Unix.gettimeofday () in
    let run = w.setup ~seed:o.seed ~smoke:o.smoke ~trace:o.trace in
    let times = (Unix.gettimeofday () -. t0) :: times in
    if k = 1 then (run, times)
    else begin
      run.stop ();
      set_up (k - 1) times
    end
  in
  let run, times = set_up (if o.smoke then 1 else 7) [] in
  Fun.protect ~finally:run.stop @@ fun () ->
  let untraced =
    List.init (if o.smoke then 1 else laps) (fun _ -> run_lap run ~size ~replay:false)
  in
  let latency = sample_latencies untraced in
  Printf.printf "workload %s: %d samples x %d laps, %.3f s busy (seed %d)\n" w.name size
    (List.length untraced)
    (sum (List.map (fun l -> l.busy) untraced))
    o.seed;
  Printf.printf "outputs_digest %s\n" run.digest;
  let traced =
    if not o.trace then None
    else begin
      Obs.set_metrics true;
      let before = snapshot () in
      Span.enable ();
      let traced = run_lap run ~size ~replay:true in
      Span.disable ();
      let after = snapshot () in
      Obs.set_metrics false;
      Option.iter
        (fun dir ->
          if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
          Span.write_chrome (Filename.concat dir (w.name ^ ".trace.json")))
        o.trace_out;
      Some (traced, layer_metrics run ~untraced:latency ~traced ~before ~after)
    end
  in
  let all_laps = untraced @ Option.fold ~none:[] ~some:(fun (t, _) -> [ t ]) traced in
  let attempted = size * List.length all_laps in
  let failed = List.fold_left (fun acc l -> acc + failures l) 0 all_laps in
  let metrics =
    match traced with
    | None ->
      e2e_metrics latency ~setup_s:(median times) ~peak_rss:(run.peak_rss_mb ())
    | Some (t, (rows, layers)) ->
      Printf.printf "traced lap: %.3f s busy\n%s" t.busy (Span.render_table rows);
      layers
  in
  List.iter
    (fun (name, v) -> Printf.printf "  %-34s %14.6g %s\n" name v (unit_of name))
    metrics;
  print_endline (result_json ~correct:(failed = 0) ~attempted ~failed metrics);
  failed = 0
