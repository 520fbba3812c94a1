open Pipeline_model
module Stats_u = Pipeline_util.Stats
module W = Pipeline_sim.Workload_sim

type config = {
  controller : Controller.config;
  arrivals : float array;
  churn : Churn.event list;
  noise : W.noise;
  retry : W.retry;
  seed : int;
}

let default_config ~threshold =
  {
    controller = Controller.default ~threshold;
    arrivals = Array.make 200 0.;
    churn = [];
    noise = W.No_noise;
    retry = W.no_retry;
    seed = 0;
  }

type stats = {
  workload : W.stats;
  lost : int;
  segments : int;
  reactions : Controller.reaction list;
  migrations : int;
  migrated_stages : int;
  migration_volume : float;
  reaction_mean : float;
  reaction_max : float;
  degradation : float;
  final_mapping : Mapping.t;
}

(* A mapping epoch: [start <= t < stop] on [mapping], with data sets
   admitted from [effective_start] (migration drain). *)
type segment = {
  start : float;
  effective_start : float;
  stop : float;  (* infinity for the last epoch *)
  mapping : Mapping.t;
}

let c_runs = Obs.Counter.make ~doc:"Stream_sim.run invocations" "stream.sim.runs"

let c_segments =
  Obs.Counter.make ~doc:"mapping epochs simulated" "stream.sim.segments"

let c_events =
  Obs.Counter.make ~doc:"timeline events processed (churn + retries)"
    "stream.sim.events"

let c_lost =
  Obs.Counter.make ~doc:"data sets lost to churn across streaming runs"
    "stream.sim.lost"

let validate config (inst : Instance.t) initial =
  let k = Array.length config.arrivals in
  if k < 1 then invalid_arg "Stream_sim.run: arrival trace must be non-empty";
  (* Full simulator validation (trace shape, noise, retry, mapping fit). *)
  W.validate
    {
      W.default_config with
      arrival = W.Trace config.arrivals;
      noise = config.noise;
      retry = config.retry;
      datasets = k;
      seed = config.seed;
    }
    inst initial;
  Churn.validate ~p:(Platform.p inst.platform) config.churn

(* Crash/recover windows of the full churn trace, intersected with a
   segment and rebased to its origin. *)
let segment_crashes windows seg =
  List.filter_map
    (fun (w : W.crash) ->
      let recover = match w.recover_at with Some r -> r | None -> infinity in
      let from = Float.max w.at seg.start and till = Float.min recover seg.stop in
      if from < till then
        Some
          {
            W.at = from -. seg.start;
            proc = w.proc;
            recover_at = (if recover < seg.stop then Some (recover -. seg.start) else None);
          }
      else None)
    windows

(* Speed events compiled per segment: the factors composed up to the
   segment's origin fire at relative time 0, later events fire at their
   offset. Independent of controller processing order by construction. *)
let segment_slowdowns churn seg =
  let open_factor = Hashtbl.create 8 in
  let later = ref [] in
  List.iter
    (fun (e : Churn.event) ->
      match e.kind with
      | Churn.Speed f ->
        if e.at <= seg.start then begin
          let prev =
            match Hashtbl.find_opt open_factor e.proc with Some x -> x | None -> 1.
          in
          Hashtbl.replace open_factor e.proc (prev *. f)
        end
        else if e.at <= seg.stop then
          later := { W.at = e.at -. seg.start; proc = e.proc; factor = f } :: !later
      | _ -> ())
    (Churn.sorted churn);
  let opening =
    Hashtbl.fold
      (fun proc factor acc ->
        if factor = 1. then acc else { W.at = 0.; proc; factor } :: acc)
      open_factor []
  in
  List.sort
    (fun (a : W.slowdown) b ->
      match Float.compare a.at b.at with 0 -> compare a.proc b.proc | c -> c)
    (opening @ List.rev !later)

let run ?config (inst : Instance.t) ~initial =
  let cfg =
    match config with
    | Some c -> c
    | None -> default_config ~threshold:(Instance.single_proc_period inst)
  in
  validate cfg inst initial;
  Obs.Counter.incr c_runs;
  Obs.span "stream:run" @@ fun () ->
  let p = Platform.p inst.platform in
  let threshold = cfg.controller.Controller.threshold in
  let ctl =
    Controller.create ~config:cfg.controller inst ~initial ~threshold
  in
  let windows = Churn.crashes ~p cfg.churn in
  let state0 = Churn.initial ~p cfg.churn in
  (* Fold the merged timeline: churn events in (at, proc) order, retry
     wake-ups interleaved; churn first on ties so a wake-up sees the
     state it was scheduled against. *)
  let reactions_rev = ref [] in
  let segments_rev = ref [] in
  let seg = ref { start = 0.; effective_start = 0.; stop = infinity; mapping = initial } in
  let state = ref state0 in
  let retries = ref [] in
  let push_retry = function
    | None -> ()
    | Some at -> retries := List.sort Float.compare (at :: !retries)
  in
  let initial_period = Controller.period ctl state0 in
  let react at =
    Obs.Counter.incr c_events;
    let r = Controller.on_event ctl !state ~at in
    reactions_rev := r :: !reactions_rev;
    push_retry r.Controller.retry_at;
    if not (Mapping.equal r.Controller.mapping (!seg).mapping) then begin
      segments_rev := { !seg with stop = at } :: !segments_rev;
      seg :=
        {
          start = at;
          effective_start = at +. r.Controller.reaction_latency;
          stop = infinity;
          mapping = r.Controller.mapping;
        }
    end
  in
  let rec loop churn =
    let next_retry = match !retries with [] -> None | at :: _ -> Some at in
    match (churn, next_retry) with
    | [], None -> ()
    | (e : Churn.event) :: rest, None ->
      state := Churn.apply !state e;
      react e.at;
      loop rest
    | [], Some at ->
      retries := List.tl !retries;
      react at;
      loop []
    | e :: rest, Some at when e.at <= at ->
      state := Churn.apply !state e;
      react e.at;
      loop rest
    | churn, Some at ->
      retries := List.tl !retries;
      react at;
      loop churn
  in
  loop (Churn.sorted cfg.churn);
  let segments = List.rev (!seg :: !segments_rev) in
  Obs.Counter.add c_segments (List.length segments);
  (* Execute each epoch on the simulator (drain-and-switch: a data set
     runs entirely in the epoch it arrived in). *)
  let offered = Array.length cfg.arrivals in
  let executed =
    let _, _, rev =
      List.fold_left
        (fun (cursor, idx, acc) s ->
          let from = ref cursor in
          let cursor = ref cursor in
          while !cursor < offered && cfg.arrivals.(!cursor) < s.stop do
            incr cursor
          done;
          let count = !cursor - !from in
          let outcome =
            if count = 0 then (s, None)
            else begin
              let from = !from in
              let rel =
                Array.init count (fun i ->
                    Float.max cfg.arrivals.(from + i) s.effective_start -. s.start)
              in
              let config =
                {
                  W.arrival = W.Trace rel;
                  noise = cfg.noise;
                  slowdowns = segment_slowdowns cfg.churn s;
                  crashes = segment_crashes windows s;
                  retry = cfg.retry;
                  datasets = count;
                  seed = cfg.seed + (97 * idx);
                }
              in
              let stats =
                Obs.span "stream:segment" @@ fun () -> W.run ~config inst s.mapping
              in
              (s, Some stats)
            end
          in
          (!cursor, idx + 1, outcome :: acc))
        (0, 0, []) segments
    in
    List.rev rev
  in
  let simulated = List.filter_map (fun (s, st) -> Option.map (fun x -> (s, x)) st) executed in
  let sum f = List.fold_left (fun acc (_, st) -> acc + f st) 0 simulated in
  let completed = sum (fun (st : W.stats) -> st.completed) in
  let workload =
    match simulated with
    | [ (_, only) ] ->
      (* Single epoch: the simulator statistics, verbatim — the
         empty-churn bit-identity hinges on this arm. *)
      only
    | _ ->
      let finished =
        List.filter (fun (_, (st : W.stats)) -> st.completed > 0) simulated
      in
      let totals =
        {
          W.completed = 0;
          makespan = 0.;
          steady_period = 0.;
          throughput = 0.;
          latency_mean = nan;
          latency_p95 = nan;
          latency_max = nan;
          sojourn_max = nan;
          latencies = [];
          offered;
          dropped = sum (fun st -> st.dropped);
          killed = sum (fun st -> st.killed);
          retries = sum (fun st -> st.retries);
        }
      in
      if finished = [] then totals
      else begin
        let makespan =
          List.fold_left
            (fun acc (s, (st : W.stats)) -> Float.max acc (s.start +. st.makespan))
            0. finished
        in
        let latencies =
          List.concat_map (fun (_, (st : W.stats)) -> st.latencies) finished
        in
        let weighted_period =
          let num, den =
            List.fold_left
              (fun (num, den) (_, (st : W.stats)) ->
                let w = st.completed in
                if w >= 2 then (num +. (float_of_int w *. st.steady_period), den + w)
                else (num, den))
              (0., 0) finished
          in
          if den = 0 then 0. else num /. float_of_int den
        in
        {
          totals with
          completed;
          makespan;
          steady_period = weighted_period;
          throughput = (if makespan > 0. then float_of_int completed /. makespan else 0.);
          latency_mean = Stats_u.mean latencies;
          latency_p95 = Stats_u.percentile 0.95 latencies;
          latency_max = snd (Stats_u.min_max latencies);
          sojourn_max =
            List.fold_left
              (fun acc (_, (st : W.stats)) -> Float.max acc st.sojourn_max)
              neg_infinity finished;
          latencies;
        }
      end
  in
  let reactions = List.rev !reactions_rev in
  let moved = List.filter (fun (r : Controller.reaction) -> r.migrated_stages > 0) reactions in
  let reaction_latencies = List.map (fun (r : Controller.reaction) -> r.reaction_latency) moved in
  let lost = offered - completed in
  Obs.Counter.add c_lost lost;
  (* Degradation: the live period of whatever mapping is in place,
     integrated over the run and normalised by the threshold. *)
  let horizon =
    List.fold_left
      (fun acc (r : Controller.reaction) -> Float.max acc r.at)
      workload.W.makespan reactions
  in
  let degradation =
    let steps =
      (0., initial_period)
      :: List.map (fun (r : Controller.reaction) -> (r.at, r.period)) reactions
    in
    let rec integrate acc = function
      | [] -> acc
      | [ (t, v) ] -> acc +. (v *. (horizon -. t))
      | (t, v) :: ((t', _) :: _ as rest) -> integrate (acc +. (v *. (t' -. t))) rest
    in
    if horizon > 0. then integrate 0. steps /. (horizon *. threshold)
    else initial_period /. threshold
  in
  {
    workload;
    lost;
    segments = List.length segments;
    reactions;
    migrations = List.length moved;
    migrated_stages =
      List.fold_left (fun acc (r : Controller.reaction) -> acc + r.migrated_stages) 0 moved;
    migration_volume =
      List.fold_left (fun acc (r : Controller.reaction) -> acc +. r.migration_volume) 0. moved;
    reaction_mean =
      (match Stats_u.mean_opt reaction_latencies with Some m -> m | None -> 0.);
    reaction_max =
      (if reaction_latencies = [] then 0.
       else List.fold_left Float.max neg_infinity reaction_latencies);
    degradation;
    final_mapping = Controller.mapping ctl;
  }
