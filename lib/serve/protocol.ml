(* Routing, validation and response construction. doc/serving.mld is
   the protocol reference; DESIGN.md §12 records the interpretation
   choices (status mapping, CLI wording parity, counter mirroring). *)

open Pipeline_model
module Ureg = Pipeline_registry

(* ------------------------------------------------------------------ *)
(* Observability                                                       *)
(* ------------------------------------------------------------------ *)

(* Registered on first use, NOT at module initialisation: the counter
   registry is process-global and [Obs.metrics_csv] dumps every
   registered name, so eager registration would grow the bench's
   metrics.csv golden merely by linking this library. *)
type counters = {
  requests : Obs.Counter.t;
  solve : Obs.Counter.t;
  pareto : Obs.Counter.t;
  simulate : Obs.Counter.t;
  ok : Obs.Counter.t;
  client_error : Obs.Counter.t;
  server_error : Obs.Counter.t;
  platform_hits : Obs.Counter.t;
  platform_misses : Obs.Counter.t;
  app_hits : Obs.Counter.t;
  app_misses : Obs.Counter.t;
  evictions : Obs.Counter.t;
}

let counters =
  lazy
    {
      requests = Obs.Counter.make ~doc:"HTTP requests received" "serve.requests";
      solve = Obs.Counter.make ~doc:"POST /solve requests" "serve.requests.solve";
      pareto = Obs.Counter.make ~doc:"POST /pareto requests" "serve.requests.pareto";
      simulate =
        Obs.Counter.make ~doc:"POST /simulate requests" "serve.requests.simulate";
      ok = Obs.Counter.make ~doc:"2xx responses" "serve.responses.ok";
      client_error =
        Obs.Counter.make ~doc:"4xx responses" "serve.responses.client_error";
      server_error =
        Obs.Counter.make ~doc:"5xx responses" "serve.responses.server_error";
      platform_hits =
        Obs.Counter.make ~doc:"warm-cache platform fingerprint hits"
          "serve.cache.platform_hits";
      platform_misses =
        Obs.Counter.make ~doc:"warm-cache platform fingerprint misses"
          "serve.cache.platform_misses";
      app_hits =
        Obs.Counter.make ~doc:"warm-cache application hits under a cached platform"
          "serve.cache.app_hits";
      app_misses =
        Obs.Counter.make ~doc:"warm-cache application misses" "serve.cache.app_misses";
      evictions =
        Obs.Counter.make ~doc:"warm-cache platform entries evicted"
          "serve.cache.evictions";
    }

type t = {
  cache : Cache.t;
  mutable mirrored : Cache.stats; (* last values pushed into the counters *)
}

let zero_stats =
  {
    Cache.platform_hits = 0;
    platform_misses = 0;
    app_hits = 0;
    app_misses = 0;
    evictions = 0;
  }

let create () =
  ignore (Lazy.force counters);
  { cache = Cache.create (); mirrored = zero_stats }

let cache_stats t = Cache.stats t.cache

(* Counters are monotone, so the mirror pushes deltas. *)
let mirror_cache t =
  let c = Lazy.force counters in
  let now = Cache.stats t.cache in
  let was = t.mirrored in
  Obs.Counter.add c.platform_hits (now.Cache.platform_hits - was.Cache.platform_hits);
  Obs.Counter.add c.platform_misses
    (now.Cache.platform_misses - was.Cache.platform_misses);
  Obs.Counter.add c.app_hits (now.Cache.app_hits - was.Cache.app_hits);
  Obs.Counter.add c.app_misses (now.Cache.app_misses - was.Cache.app_misses);
  Obs.Counter.add c.evictions (now.Cache.evictions - was.Cache.evictions);
  t.mirrored <- now

(* ------------------------------------------------------------------ *)
(* Rejection                                                           *)
(* ------------------------------------------------------------------ *)

exception Reject of int * string

let reject status fmt = Printf.ksprintf (fun m -> raise (Reject (status, m))) fmt

(* ------------------------------------------------------------------ *)
(* Request parsing                                                     *)
(* ------------------------------------------------------------------ *)

let body_json (req : Http.request) =
  if req.Http.body = "" then reject 400 "empty request body (a JSON object is required)";
  match Json.of_string req.Http.body with
  | Ok v -> v
  | Error msg -> reject 400 "body is not valid JSON: %s" msg

let require body key =
  match Json.member key body with
  | Some v -> v
  | None -> reject 400 "missing field %S" key

let number body key =
  match Json.to_float (require body key) with
  | Some f when Float.is_finite f -> f
  | _ -> reject 400 "field %S must be a finite number" key

let opt_number body key =
  match Json.member key body with
  | None -> None
  | Some v -> (
    match Json.to_float v with
    | Some f when Float.is_finite f -> Some f
    | _ -> reject 400 "field %S must be a finite number" key)

let opt_int body key =
  match Json.member key body with
  | None -> None
  | Some v -> (
    match Json.to_int v with
    | Some n -> Some n
    | None -> reject 400 "field %S must be an integer" key)

let opt_string body key =
  match Json.member key body with
  | None -> None
  | Some v -> (
    match Json.to_string_opt v with
    | Some s -> Some s
    | None -> reject 400 "field %S must be a string" key)

let opt_bool body key =
  match Json.member key body with
  | None -> false
  | Some v -> (
    match Json.to_bool v with
    | Some b -> b
    | None -> reject 400 "field %S must be a boolean" key)

let float_array body key =
  match Json.floats (require body key) with
  | Some a -> a
  | None -> reject 400 "field %S must be an array of finite numbers" key

(* Model constructors validate values (positivity, shapes) and raise
   Invalid_argument; [handle] turns those into the 400 body, so the
   wording of e.g. a negative work weight is the library's own. *)
let platform_of_json j =
  let speeds = float_array j "speeds" in
  match Json.member "bandwidths" j with
  | Some m -> (
    (* Fully heterogeneous: a p×p symmetric matrix. *)
    match Json.to_list m with
    | None -> reject 400 "field \"bandwidths\" must be a matrix (array of arrays)"
    | Some rows ->
      let bandwidths =
        Array.of_list
          (List.map
             (fun row ->
               match Json.floats row with
               | Some a -> a
               | None ->
                 reject 400
                   "field \"bandwidths\" must be a matrix of finite numbers")
             rows)
      in
      let io_bandwidths =
        match Json.member "io_bandwidths" j with
        | None -> None
        | Some v -> (
          match Json.floats v with
          | Some a -> Some a
          | None ->
            reject 400 "field \"io_bandwidths\" must be an array of finite numbers")
      in
      Platform.fully_heterogeneous ?io_bandwidths ~bandwidths speeds)
  | None ->
    let bandwidth = number j "bandwidth" in
    let io_bandwidth = opt_number j "io_bandwidth" in
    Platform.comm_homogeneous ?io_bandwidth ~bandwidth speeds

let instance_of_json body =
  let j = require body "instance" in
  let works = float_array j "works" in
  let deltas = float_array j "deltas" in
  let platform_json = require j "platform" in
  let app = Application.make ~deltas works in
  let platform = platform_of_json platform_json in
  Instance.make app platform

(* Exactly one of "period" / "latency" — the CLI's wording. *)
let threshold_of body =
  match (opt_number body "period", opt_number body "latency") with
  | Some p, None -> (Ureg.Period_fixed, p)
  | None, Some l -> (Ureg.Latency_fixed, l)
  | _ -> reject 400 "exactly one of \"period\" / \"latency\" is required"

(* ------------------------------------------------------------------ *)
(* Response construction                                               *)
(* ------------------------------------------------------------------ *)

let json_response status v = (status, "application/json", Json.to_string v)

let solution_row ~id ~name = function
  | None ->
    Json.Obj
      [ ("id", Json.String id); ("name", Json.String name); ("feasible", Json.Bool false) ]
  | Some (sol : Pipeline_core.Solution.t) ->
    Json.Obj
      [
        ("id", Json.String id);
        ("name", Json.String name);
        ("feasible", Json.Bool true);
        ("mapping", Json.String (Mapping.to_string sol.Pipeline_core.Solution.mapping));
        ("period", Json.Number sol.Pipeline_core.Solution.period);
        ("latency", Json.Number sol.Pipeline_core.Solution.latency);
      ]

let outcome_row (info : Ureg.info) = function
  | None ->
    Json.Obj
      [
        ("id", Json.String info.Ureg.id);
        ("name", Json.String info.Ureg.paper_name);
        ("feasible", Json.Bool false);
      ]
  | Some (o : Ureg.outcome) ->
    Json.Obj
      ([
         ("id", Json.String info.Ureg.id);
         ("name", Json.String info.Ureg.paper_name);
         ("feasible", Json.Bool true);
         ("mapping", Json.String (Deal_mapping.to_string o.Ureg.mapping));
         ("period", Json.Number o.Ureg.period);
         ("latency", Json.Number o.Ureg.latency);
       ]
      @
      match o.Ureg.failure with
      | None -> []
      | Some f -> [ ("failure", Json.Number f) ])

(* ------------------------------------------------------------------ *)
(* Endpoints                                                           *)
(* ------------------------------------------------------------------ *)

let handle_health () =
  json_response 200
    (Json.Obj
       [
         ("status", Json.String "ok");
         ("service", Json.String "pipeline-sched");
         ("version", Json.String "1.0.0");
       ])

let handle_metrics () = (200, "text/plain; version=0.0.4", Obs.exposition ())

let handle_solve t body =
  let request = instance_of_json body in
  let kind, threshold = threshold_of body in
  let chosen =
    match opt_string body "heuristic" with
    | None -> None
    | Some name -> (
      match Ureg.resolve ~kind name with
      | Ok info -> Some (name, info)
      | Error msg -> reject 400 "%s" msg)
  in
  let exact = opt_bool body "exact" in
  let lookup = Cache.canonical t.cache request in
  let inst = lookup.Cache.instance in
  let comm_hom = Platform.is_comm_homogeneous inst.Instance.platform in
  (match chosen with
  | Some (name, info) when (not comm_hom) && info.Ureg.stack <> Ureg.Het ->
    reject 400 "heuristic %s requires a comm-homogeneous platform" name
  | _ -> ());
  let registry_rows =
    match chosen with
    | Some (_, info) -> [ info ]
    | None when comm_hom ->
      List.filter (fun (i : Ureg.info) -> i.Ureg.kind = kind) Ureg.paper
    | None -> []
  in
  let results =
    List.map
      (fun (info : Ureg.info) ->
        outcome_row info (info.Ureg.solve inst ~threshold))
      registry_rows
  in
  let results =
    if chosen = None && not comm_hom then begin
      (* Fully heterogeneous platform, no explicit row: the het
         extension, as in the CLI. *)
      let sol =
        match kind with
        | Ureg.Period_fixed ->
          Pipeline_het.Het_heuristics.minimise_latency_under_period inst
            ~period:threshold
        | Ureg.Latency_fixed ->
          Pipeline_het.Het_heuristics.minimise_period_under_latency inst
            ~latency:threshold
      in
      results @ [ solution_row ~id:"het-splitting" ~name:"het splitting" sol ]
    end
    else results
  in
  let results =
    if exact then
      match Ureg.exact inst kind ~threshold with
      | Ok sol -> results @ [ solution_row ~id:"exact" ~name:"exact" sol ]
      | Error diagnostic -> reject 400 "%s" diagnostic
    else results
  in
  json_response 200
    (Json.Obj
       [
         ("n", Json.Number (float_of_int (Application.n inst.Instance.app)));
         ("p", Json.Number (float_of_int (Platform.p inst.Instance.platform)));
         ( "kind",
           Json.String
             (match kind with
             | Ureg.Period_fixed -> "period"
             | Ureg.Latency_fixed -> "latency") );
         ("threshold", Json.Number threshold);
         ("results", Json.List results);
       ])

let handle_pareto t body =
  let request = instance_of_json body in
  let lookup = Cache.canonical t.cache request in
  let inst = lookup.Cache.instance in
  let front =
    match Ureg.exact_pareto inst with
    | Ok front -> front
    | Error diagnostic -> reject 400 "%s" diagnostic
  in
  json_response 200
    (Json.Obj
       [
         ("n", Json.Number (float_of_int (Application.n inst.Instance.app)));
         ("p", Json.Number (float_of_int (Platform.p inst.Instance.platform)));
         ( "points",
           Json.List
             (List.map
                (fun (sol : Pipeline_core.Solution.t) ->
                  Json.Obj
                    [
                      ( "mapping",
                        Json.String
                          (Mapping.to_string sol.Pipeline_core.Solution.mapping) );
                      ("period", Json.Number sol.Pipeline_core.Solution.period);
                      ("latency", Json.Number sol.Pipeline_core.Solution.latency);
                    ])
                front) );
       ])

(* One request must not set the daemon's memory and run time: the
   simulator holds a few floats per (interval, data set) pair, and 10^6
   pairs run in about a second with a ~50 MB heap. The CLI runs in the
   caller's own process and stays unbounded. *)
let max_simulated_pairs = 1_000_000

let handle_simulate t body =
  let request = instance_of_json body in
  let lookup = Cache.canonical t.cache request in
  let inst = lookup.Cache.instance in
  let sol =
    match opt_string body "mapping" with
    | Some text -> (
      match Mapping_io.of_string text with
      | Ok mapping -> Pipeline_core.Solution.of_mapping inst mapping
      | Error e -> reject 400 "bad mapping: %s" e)
    | None -> (
      let threshold =
        match opt_number body "period" with
        | Some p -> p
        | None -> Instance.single_proc_period inst *. 0.85
      in
      match Ureg.default_mapping inst ~period:threshold with
      | None -> reject 400 "no mapping achieves period %g" threshold
      | Some sol -> sol)
  in
  let datasets = Option.value (opt_int body "datasets") ~default:50 in
  let noise = Option.value (opt_number body "noise") ~default:0. in
  let seed = Option.value (opt_int body "seed") ~default:2007 in
  (* |datasets| <= 10^9 (Json.to_int), so the product cannot overflow. *)
  let pairs = Mapping.m sol.Pipeline_core.Solution.mapping * datasets in
  if pairs > max_simulated_pairs then
    reject 400 "simulation of %d (interval, data set) pairs exceeds the bound of %d"
      pairs max_simulated_pairs;
  let module W = Pipeline_sim.Workload_sim in
  let s =
    W.run
      ~config:
        {
          W.default_config with
          datasets;
          noise = (if noise = 0. then W.No_noise else W.Uniform_factor noise);
          seed;
        }
      inst sol.Pipeline_core.Solution.mapping
  in
  json_response 200
    (Json.Obj
       [
         ( "mapping",
           Json.String (Mapping.to_string sol.Pipeline_core.Solution.mapping) );
         ("analytic_period", Json.Number sol.Pipeline_core.Solution.period);
         ("analytic_latency", Json.Number sol.Pipeline_core.Solution.latency);
         ( "stats",
           Json.Obj
             [
               ("completed", Json.Number (float_of_int s.W.completed));
               ("makespan", Json.Number s.W.makespan);
               ("steady_period", Json.Number s.W.steady_period);
               ("throughput", Json.Number s.W.throughput);
               ("latency_mean", Json.Number s.W.latency_mean);
               ("latency_p95", Json.Number s.W.latency_p95);
               ("latency_max", Json.Number s.W.latency_max);
             ] );
       ])

(* ------------------------------------------------------------------ *)
(* Dispatch                                                            *)
(* ------------------------------------------------------------------ *)

let known_paths = [ "/health"; "/metrics"; "/solve"; "/pareto"; "/simulate" ]

let dispatch t (req : Http.request) =
  match (req.Http.meth, req.Http.path) with
  | "GET", "/health" -> handle_health ()
  | "GET", "/metrics" -> handle_metrics ()
  | "POST", "/solve" ->
    Obs.Counter.incr (Lazy.force counters).solve;
    handle_solve t (body_json req)
  | "POST", "/pareto" ->
    Obs.Counter.incr (Lazy.force counters).pareto;
    handle_pareto t (body_json req)
  | "POST", "/simulate" ->
    Obs.Counter.incr (Lazy.force counters).simulate;
    handle_simulate t (body_json req)
  | meth, path when List.mem path known_paths ->
    reject 405 "method %s not allowed on %s" meth path
  | _, path -> reject 404 "no such endpoint %s" path

let error_body msg = Json.to_string (Json.Obj [ ("error", Json.String msg) ])

let handle t req =
  let c = Lazy.force counters in
  Obs.Counter.incr c.requests;
  let status, content_type, body =
    try dispatch t req with
    | Reject (status, msg) -> (status, "application/json", error_body msg)
    | Invalid_argument msg | Failure msg ->
      (* The model constructors' own validation — a client error, as on
         the CLI (exit 2). *)
      (400, "application/json", error_body msg)
    | e -> (500, "application/json", error_body (Printexc.to_string e))
  in
  (if status >= 500 then Obs.Counter.incr c.server_error
   else if status >= 400 then Obs.Counter.incr c.client_error
   else Obs.Counter.incr c.ok);
  mirror_cache t;
  (status, content_type, body)
