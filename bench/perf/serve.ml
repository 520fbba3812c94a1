(* POST /solve round trips against a [pipeline_sched serve --jobs 1]
   child. One client sends each request after the previous answer (a
   closed loop): the daemon serves one connection at a time, so its
   sustainable rate is exactly the measured throughput, and an open loop
   would only measure queueing.

   serve-warm draws from a fixed working set that fits the daemon's
   cache; serve-cold draws from the same distribution but gives every
   request a platform the daemon does not hold. *)

open Pipeline_model
module E = Pipeline_experiments
module Registry = Pipeline_registry
module Rng = Pipeline_util.Rng
module Json = Pipeline_serve.Json
module Http = Pipeline_serve.Http
module Protocol = Pipeline_serve.Protocol
module Cache = Pipeline_serve.Cache

type mode = Warm | Cold

let rows = Array.of_list Registry.paper

(* Application slot j of platform k: family E(j+1) at n = 10, 20, 40,
   10. Every platform has its own applications, so the slowest requests
   are spread over 16 applications of each kind instead of one. *)
let app ~seed k j =
  let families = [| E.Config.E1; E2; E3; E4 |] and ns = [| 10; 20; 40 |] in
  App_generator.generate
    (Rng.create (Hashtbl.hash (seed, "perf-serve-app", k, j)))
    (E.Config.app_spec families.(j) ~n:ns.(j mod 3))

let platform ~seed tag k =
  Platform_generator.comm_homogeneous
    (Rng.create (Hashtbl.hash (seed, tag, k)))
    ~p:10

type request = {
  info : Registry.info;
  threshold : float;
  body : string;
}

(* The request and response field of a row's threshold. *)
let key (info : Registry.info) =
  match info.kind with Registry.Period_fixed -> "period" | Registry.Latency_fixed -> "latency"

(* Period rows at 0.6 × the single-processor period, latency rows at
   1.5 × the optimal latency. *)
let request inst (info : Registry.info) =
  let floats a = Json.List (Array.to_list (Array.map (fun x -> Json.Number x) a)) in
  let threshold =
    match info.kind with
    | Registry.Period_fixed -> 0.6 *. Instance.single_proc_period inst
    | Registry.Latency_fixed -> 1.5 *. Instance.optimal_latency inst
  in
  let body =
    Json.to_string
      (Json.Obj
         [
           ( "instance",
             Json.Obj
               [
                 ("works", floats (Application.works inst.Instance.app));
                 ("deltas", floats (Application.deltas inst.Instance.app));
                 ( "platform",
                   Json.Obj
                     [
                       ("speeds", floats (Platform.speeds inst.Instance.platform));
                       ("bandwidth", Json.Number 10.);
                     ] );
               ] );
           (key info, Json.Number threshold);
           ("heuristic", Json.String info.id);
         ])
  in
  { info; threshold; body }

(* Status 200, a JSON body, and one result row that meets the threshold
   when it claims to be feasible. *)
let checked req = function
  | Ok (200, body) -> (
    match Json.of_string body with
    | Error _ -> None
    | Ok json ->
      let ok =
        match Option.bind (Json.member "results" json) Json.to_list with
        | Some [ row ] -> (
          match Option.bind (Json.member "feasible" row) Json.to_bool with
          | Some false -> true
          | Some true -> (
            match Option.bind (Json.member (key req.info) row) Json.to_float with
            | Some v -> Pipeline_util.Tol.meets v req.threshold
            | None -> false)
          | None -> false)
        | _ -> false
      in
      if ok then Some (body, json) else None)
  | _ -> None

(* The request instance rebuilt from its JSON, as the daemon's parser
   does, so the cache sees a fresh physical value. *)
let instance_of_json json =
  let field path = List.fold_left (fun j k -> Option.bind j (Json.member k)) (Some json) path in
  let floats path = Option.get (Option.bind (field path) Json.floats) in
  let app =
    Application.make ~deltas:(floats [ "instance"; "deltas" ]) (floats [ "instance"; "works" ])
  in
  let bandwidth =
    Option.get (Option.bind (field [ "instance"; "platform"; "bandwidth" ]) Json.to_float)
  in
  Instance.make app
    (Platform.comm_homogeneous ~bandwidth (floats [ "instance"; "platform"; "speeds" ]))

let http_request body =
  {
    Http.meth = "POST";
    path = "/solve";
    headers =
      [
        ("content-type", "application/json");
        ("content-length", string_of_int (String.length body));
      ];
    body;
  }

(* The in-process replay of the traced lap: the whole handler, then its
   public pieces on a second cache that has seen the same requests. *)
type replay = {
  protocol : Protocol.t;
  shadow : Cache.t;
  base : Cache.stats;  (* [protocol]'s tallies when the lap starts *)
  mutable replays : int;
  mutable engine_builds : int;
  mutable candidate_builds : int;
  mutable request_bytes : int;
  mutable response_bytes : int;
}

let warm_replay protocol shadow req =
  ignore (Protocol.handle protocol (http_request req.body));
  match Json.of_string req.body with
  | Ok json -> ignore (Cache.canonical shadow (instance_of_json json))
  | Error msg -> failwith msg

let replay_one r req response =
  let c0 = Pipeline_model.Cost.cache_stats () in
  ignore (Span.run "protocol.handle" (fun () -> Protocol.handle r.protocol (http_request req.body)));
  let c1 = Pipeline_model.Cost.cache_stats () in
  r.replays <- r.replays + 1;
  r.engine_builds <- r.engine_builds + c1.engine_builds - c0.engine_builds;
  r.candidate_builds <- r.candidate_builds + c1.candidate_builds - c0.candidate_builds;
  r.request_bytes <- r.request_bytes + String.length req.body;
  let body, json = response in
  r.response_bytes <- r.response_bytes + String.length body;
  match Span.run "json.decode" (fun () -> Json.of_string req.body) with
  | Error msg -> failwith msg
  | Ok decoded ->
    let inst = Span.run "protocol.instance" (fun () -> instance_of_json decoded) in
    let lookup = Span.run "cache.canonical" (fun () -> Cache.canonical r.shadow inst) in
    ignore
      (Span.run "registry.solve" (fun () ->
           req.info.solve lookup.Cache.instance ~threshold:req.threshold));
    ignore (Span.run "json.encode" (fun () -> Json.to_string json))

let replay_metrics r =
  let now = Protocol.cache_stats r.protocol and was = r.base in
  let hits = now.platform_hits - was.platform_hits in
  let misses = now.platform_misses - was.platform_misses in
  let per_replay v = Harness.ratio (float_of_int v) (float_of_int r.replays) in
  let handle = Hashtbl.of_seq (List.to_seq (Span.by_sample "protocol.handle")) in
  let transport =
    List.filter_map
      (fun (i, rtt) -> Option.map (fun h -> rtt -. h) (Hashtbl.find_opt handle i))
      (Span.by_sample "http.post")
  in
  [
    ("http.transport_us", (match transport with [] -> 0. | l -> Harness.median l *. 1e6));
    ("protocol.handle_us", Harness.per_sample_median_us "protocol.handle");
    ("json.decode_us", Harness.per_sample_median_us "json.decode");
    ("json.encode_us", Harness.per_sample_median_us "json.encode");
    ("json.request_bytes", per_replay r.request_bytes);
    ("json.response_bytes", per_replay r.response_bytes);
    ("cache.canonical_us", Harness.per_sample_median_us "cache.canonical");
    ("cache.platform_hit_ratio", Harness.ratio (float_of_int hits) (float_of_int (hits + misses)));
    ("cache.evictions", per_replay (now.evictions - was.evictions));
    ("cost.engine_builds_per_req", per_replay r.engine_builds);
    ("candidates.builds_per_req", per_replay r.candidate_builds);
    ("registry.solve_us", Harness.per_sample_median_us "registry.solve");
  ]

let setup mode ~seed ~smoke ~trace =
  let platforms = if smoke then 2 else 16 and slots = if smoke then 2 else 4 in
  let nrows = Array.length rows in
  (* Request r of the working set: platform r / (6 × slots), its
     application slot, and paper row r mod 6. *)
  let apps = Array.init platforms (fun k -> Array.init slots (app ~seed k)) in
  let app_of r = apps.(r / (nrows * slots)).(r / nrows mod slots) in
  let working =
    let platforms = Array.init platforms (platform ~seed "perf-serve-warm") in
    Array.init
      (Array.length platforms * slots * nrows)
      (fun r ->
        request
          (Instance.make (app_of r) platforms.(r / (nrows * slots)))
          rows.(r mod nrows))
  in
  (* A platform of its own per request; a lap holds far more requests
     than the daemon's 64 entries, so no platform is still cached when a
     later lap repeats it. The draw picks the application and the row
     exactly as for the working set. *)
  let cold tag k r =
    request (Instance.make (app_of r) (platform ~seed tag k)) rows.(r mod nrows)
  in
  let warm_up =
    match mode with
    | Warm -> working
    | Cold -> Array.init (if smoke then 4 else 64) (fun k -> cold "perf-serve-cold-warm-up" k k)
  in
  let daemon = Daemon.start () in
  let answers =
    try
      Array.map
        (fun req ->
          match checked req (Http.post ~port:daemon.port "/solve" ~body:req.body) with
          | Some (body, _) -> body
          | None -> failwith "serve warm-up: a request failed its check")
        warm_up
    with e ->
      Daemon.stop daemon;
      raise e
  in
  let replay =
    if not trace then None
    else begin
      let protocol = Protocol.create () and shadow = Cache.create () in
      Array.iter (warm_replay protocol shadow) warm_up;
      Some
        {
          protocol;
          shadow;
          base = Protocol.cache_stats protocol;
          replays = 0;
          engine_builds = 0;
          candidate_builds = 0;
          request_bytes = 0;
          response_bytes = 0;
        }
    end
  in
  let last = ref None in
  let sample i =
    let r =
      Rng.int (Rng.create (Hashtbl.hash (seed, "perf-serve-draw", i))) (Array.length working)
    in
    let req = match mode with Warm -> working.(r) | Cold -> cold "perf-serve-cold" i r in
    last := None;
    fun () ->
      let response = Span.run "http.post" (fun () -> Http.post ~port:daemon.port "/solve" ~body:req.body) in
      fun () ->
        match checked req response with
        | None -> false
        | Some ((body, _) as answer) ->
          last := Some (req, answer);
          mode = Cold || body = answers.(r)
  in
  let replay_sample _ =
    match (replay, !last) with
    | Some r, Some (req, answer) -> replay_one r req answer
    | _ -> ()
  in
  {
    Harness.sample;
    replay = replay_sample;
    layer_metrics = (fun ~samples:_ ~delta:_ -> Option.fold ~none:[] ~some:replay_metrics replay);
    digest = Harness.digest_of_strings (Array.to_list answers);
    peak_rss_mb = (fun () -> Daemon.peak_rss_mb daemon);
    stop = (fun () -> Daemon.stop daemon);
  }

let warm =
  {
    Harness.name = "serve-warm";
    rate = 2500.;
    setup = setup Warm;
  }

let cold =
  {
    Harness.name = "serve-cold";
    rate = 1100.;
    setup = setup Cold;
  }
