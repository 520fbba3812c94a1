open Pipeline_model
module Tol = Pipeline_util.Tol

type config = {
  heuristic : Pipeline_registry.info option;
  threshold : float;
  hysteresis : float;
  migration_budget : float;
  max_retries : int;
  backoff : float;
  strategy : [ `Warm | `Cold ];
}

let default ~threshold =
  {
    heuristic = None;
    threshold;
    hysteresis = 1.1;
    migration_budget = infinity;
    max_retries = 3;
    backoff = threshold *. 10.;
    strategy = `Warm;
  }

type action = Kept | Migrated | Degraded | Deferred | Stalled

type reaction = {
  at : float;
  action : action;
  mode : Resolver.mode option;
  mapping : Mapping.t;
  period : float;
  latency : float;
  met_threshold : bool;
  migrated_stages : int;
  migration_volume : float;
  reaction_latency : float;
  retry_at : float option;
}

type t = {
  cache : Resolver.cache;
  cfg : config;
  io_bandwidth : float;
  mutable current : Mapping.t;
  mutable budget : float;
  mutable retries_left : int;
}

let validate_config cfg =
  if not (Float.is_finite cfg.threshold && cfg.threshold > 0.) then
    invalid_arg "Controller.create: threshold must be finite and > 0";
  if Float.is_nan cfg.hysteresis || cfg.hysteresis < 1. then
    invalid_arg "Controller.create: hysteresis must be >= 1";
  if Float.is_nan cfg.migration_budget || cfg.migration_budget < 0. then
    invalid_arg "Controller.create: migration budget must be >= 0";
  if cfg.max_retries < 0 then
    invalid_arg "Controller.create: max_retries must be >= 0";
  if not (Float.is_finite cfg.backoff && cfg.backoff > 0.) then
    invalid_arg "Controller.create: backoff must be finite and > 0"

let create ?config (inst : Instance.t) ~initial ~threshold =
  let cfg =
    match config with Some c -> { c with threshold } | None -> default ~threshold
  in
  validate_config cfg;
  if Mapping.n initial <> Application.n inst.app then
    invalid_arg "Controller.create: mapping does not match the application";
  if not (Mapping.valid_on initial inst.platform) then
    invalid_arg "Controller.create: mapping does not fit the platform";
  {
    cache = Resolver.cache inst;
    cfg;
    io_bandwidth = Platform.io_bandwidth inst.platform 0;
    current = initial;
    budget = cfg.migration_budget;
    retries_left = cfg.max_retries;
  }

let mapping t = t.current
let config t = t.cfg

let period t state =
  match Resolver.evaluate t.cache state t.current with
  | Some s -> s.Cost.period
  | None -> infinity

let c_events = Obs.Counter.make ~doc:"controller events processed" "stream.ctl.events"
let c_kept = Obs.Counter.make ~doc:"events kept without migration" "stream.ctl.kept"
let c_migrations = Obs.Counter.make ~doc:"migrations applied" "stream.ctl.migrations"

let c_degraded =
  Obs.Counter.make ~doc:"events left in a degraded mapping" "stream.ctl.degraded"

let c_deferred =
  Obs.Counter.make ~doc:"voluntary migrations blocked by the budget"
    "stream.ctl.deferred"

let c_stalled =
  Obs.Counter.make ~doc:"events with no live processor" "stream.ctl.stalled"

let c_retries = Obs.Counter.make ~doc:"retry wake-ups scheduled" "stream.ctl.retries"

(* One retry ticket from the current degradation episode, if any is
   left; a threshold-meeting resolve re-arms the budget via [rearm]. *)
let take_retry t ~at =
  if t.retries_left > 0 then begin
    t.retries_left <- t.retries_left - 1;
    Obs.Counter.incr c_retries;
    Some (at +. t.cfg.backoff)
  end
  else None

let rearm t = t.retries_left <- t.cfg.max_retries

let on_event t state ~at =
  Obs.Counter.incr c_events;
  let cfg = t.cfg in
  let incumbent = Resolver.evaluate t.cache state t.current in
  let in_band =
    match incumbent with
    | Some s -> Tol.meets s.Cost.period (cfg.hysteresis *. cfg.threshold)
    | None -> false
  in
  if in_band then begin
    (* Hysteresis: degraded-but-tolerable mappings are left alone. *)
    Obs.Counter.incr c_kept;
    let s = Option.get incumbent in
    let met = Tol.meets s.Cost.period cfg.threshold in
    if met then rearm t;
    {
      at;
      action = Kept;
      mode = None;
      mapping = t.current;
      period = s.Cost.period;
      latency = s.Cost.latency;
      met_threshold = met;
      migrated_stages = 0;
      migration_volume = 0.;
      reaction_latency = 0.;
      retry_at = None;
    }
  end
  else begin
    let forced = incumbent = None in
    match
      Resolver.resolve ?heuristic:cfg.heuristic ~strategy:cfg.strategy t.cache state
        ~before:t.current ~threshold:cfg.threshold
    with
    | None ->
      (* Nothing is alive: park and wait for the platform to return. *)
      Obs.Counter.incr c_stalled;
      {
        at;
        action = Stalled;
        mode = None;
        mapping = t.current;
        period = infinity;
        latency = infinity;
        met_threshold = false;
        migrated_stages = 0;
        migration_volume = 0.;
        reaction_latency = 0.;
        retry_at = take_retry t ~at;
      }
    | Some plan ->
      if
        (not forced)
        && plan.Resolver.migration_volume > t.budget
      then begin
        (* Budget exhausted: a voluntary migration is deferred; the
           incumbent stays, degraded but running. *)
        Obs.Counter.incr c_deferred;
        let s = Option.get incumbent in
        {
          at;
          action = Deferred;
          mode = None;
          mapping = t.current;
          period = s.Cost.period;
          latency = s.Cost.latency;
          met_threshold = Tol.meets s.Cost.period cfg.threshold;
          migrated_stages = 0;
          migration_volume = 0.;
          reaction_latency = 0.;
          retry_at = None;
        }
      end
      else begin
        t.current <- plan.Resolver.mapping;
        t.budget <- Float.max 0. (t.budget -. plan.Resolver.migration_volume);
        let action = if plan.Resolver.met_threshold then Migrated else Degraded in
        (match action with
        | Migrated -> Obs.Counter.incr c_migrations
        | _ -> Obs.Counter.incr c_degraded);
        let retry_at =
          if plan.Resolver.met_threshold then begin
            rearm t;
            None
          end
          else take_retry t ~at
        in
        {
          at;
          action;
          mode = Some plan.Resolver.mode;
          mapping = plan.Resolver.mapping;
          period = plan.Resolver.period;
          latency = plan.Resolver.latency;
          met_threshold = plan.Resolver.met_threshold;
          migrated_stages = plan.Resolver.migrated_stages;
          migration_volume = plan.Resolver.migration_volume;
          reaction_latency = plan.Resolver.migration_volume /. t.io_bandwidth;
          retry_at;
        }
      end
  end
