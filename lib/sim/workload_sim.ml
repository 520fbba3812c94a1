open Pipeline_model
module Rng = Pipeline_util.Rng

type arrival =
  | Saturated
  | Periodic of float
  | Poisson of float
  | Trace of float array

type noise = No_noise | Uniform_factor of float

type slowdown = { at : float; proc : int; factor : float }

type crash = { at : float; proc : int; recover_at : float option }

type retry = { max_retries : int; backoff : float }

let no_retry = { max_retries = 0; backoff = 0. }

type config = {
  arrival : arrival;
  noise : noise;
  slowdowns : slowdown list;
  crashes : crash list;
  retry : retry;
  datasets : int;
  seed : int;
}

let default_config =
  {
    arrival = Saturated;
    noise = No_noise;
    slowdowns = [];
    crashes = [];
    retry = no_retry;
    datasets = 200;
    seed = 0;
  }

type stats = {
  completed : int;
  makespan : float;
  steady_period : float;
  throughput : float;
  latency_mean : float;
  latency_p95 : float;
  latency_max : float;
  sojourn_max : float;
  latencies : float list;
  offered : int;
  dropped : int;
  killed : int;
  retries : int;
}

let survival stats = float_of_int stats.completed /. float_of_int stats.offered

(* One-slot synchronisation cell for a (boundary, data set) rendezvous:
   whichever side arrives second fires the pending continuation. The
   receiver parks both its data path and its skip path, and a boundary
   can carry a drop instead of a data set. *)
type waiting = { data : Des.t -> unit; skip : Des.t -> unit }
type cell = Empty | Offered | Waiting of waiting | Fired | Dropped

let validate config (inst : Instance.t) mapping =
  let p = Platform.p inst.platform in
  if config.datasets < 1 then invalid_arg "Workload_sim.run: datasets must be >= 1";
  if Mapping.n mapping <> Application.n inst.app then
    invalid_arg "Workload_sim.run: mapping does not match the application";
  if not (Mapping.valid_on mapping inst.platform) then
    invalid_arg "Workload_sim.run: mapping does not fit the platform";
  (match config.noise with
  | Uniform_factor e when not (e >= 0. && e < 1.) ->
    invalid_arg "Workload_sim.run: noise amplitude must be in [0,1)"
  | _ -> ());
  (match config.arrival with
  | (Periodic r | Poisson r) when not (r > 0. && Float.is_finite r) ->
    invalid_arg "Workload_sim.run: rate must be finite and > 0"
  | Trace a ->
    if Array.length a <> config.datasets then
      invalid_arg "Workload_sim.run: trace length must equal datasets";
    Array.iteri
      (fun t at ->
        if not (Float.is_finite at && at >= 0.) then
          invalid_arg "Workload_sim.run: trace arrival must be finite and >= 0";
        if t > 0 && at < a.(t - 1) then
          invalid_arg "Workload_sim.run: trace arrivals must be non-decreasing")
      a
  | _ -> ());
  List.iter
    (fun (s : slowdown) ->
      if not (s.factor > 0. && Float.is_finite s.factor) then
        invalid_arg "Workload_sim.run: slowdown factor must be finite and > 0";
      if Float.is_nan s.at || s.at < 0. then
        invalid_arg "Workload_sim.run: slowdown event at a negative time";
      if s.proc < 0 || s.proc >= p then
        invalid_arg "Workload_sim.run: slowdown on a processor outside the platform")
    config.slowdowns;
  if config.retry.max_retries < 0 then
    invalid_arg "Workload_sim.run: max_retries must be >= 0";
  if not (config.retry.backoff >= 0. && Float.is_finite config.retry.backoff) then
    invalid_arg "Workload_sim.run: backoff must be finite and >= 0";
  List.iter
    (fun (c : crash) ->
      if Float.is_nan c.at || c.at < 0. then
        invalid_arg "Workload_sim.run: crash at a negative time";
      if c.proc < 0 || c.proc >= p then
        invalid_arg "Workload_sim.run: crash on a processor outside the platform";
      match c.recover_at with
      | Some r when not (Float.is_finite r && r > c.at) ->
        invalid_arg "Workload_sim.run: recovery must be finite and after the crash"
      | _ -> ())
    config.crashes;
  let rec disjoint = function
    | (a : crash) :: (b :: _ as rest) ->
      if a.proc = b.proc && Option.value a.recover_at ~default:infinity > b.at then
        invalid_arg "Workload_sim.run: overlapping crash windows on one processor";
      disjoint rest
    | _ -> ()
  in
  disjoint
    (List.sort (fun (a : crash) b -> compare (a.proc, a.at) (b.proc, b.at)) config.crashes)

let c_runs =
  Obs.Counter.make ~doc:"Workload_sim.run invocations" "sim.workload.runs"

let c_datasets =
  Obs.Counter.make ~doc:"data sets pushed through Workload_sim"
    "sim.workload.datasets"

let c_killed =
  Obs.Counter.make ~doc:"computations killed mid-flight by crashes"
    "sim.fault.killed"

let c_dropped =
  Obs.Counter.make ~doc:"data sets dropped after crashes" "sim.fault.dropped"

let c_retries =
  Obs.Counter.make ~doc:"retry attempts consumed after crashes"
    "sim.fault.retries"

let run ?(config = default_config) (inst : Instance.t) mapping =
  validate config inst mapping;
  Obs.Counter.incr c_runs;
  Obs.Counter.add c_datasets config.datasets;
  let app = inst.app and platform = inst.platform in
  let m = Mapping.m mapping in
  let k = config.datasets in
  let rng = Rng.create config.seed in
  (* Pre-draw arrivals and noise so evaluation order cannot perturb the
     streams. *)
  let arrivals =
    match config.arrival with
    | Saturated -> Array.make k 0.
    | Periodic period -> Array.init k (fun t -> float_of_int t *. period)
    | Poisson rate ->
      let acc = ref 0. in
      Array.init k (fun _ ->
          (* Exponential inter-arrival via inverse transform. *)
          let u = 1. -. Rng.float rng 1. in
          acc := !acc +. (-.log u /. rate);
          !acc)
    | Trace a -> Array.copy a
  in
  let factors =
    Array.init m (fun _ ->
        Array.init k (fun _ ->
            match config.noise with
            | No_noise -> 1.
            | Uniform_factor e -> Rng.float_in rng (1. -. e) (1. +. e)))
  in
  let first j = Interval.first (Mapping.interval mapping j) in
  let last j = Interval.last (Mapping.interval mapping j) in
  let in_bandwidth j =
    if j = 0 then Platform.io_bandwidth platform (Mapping.proc mapping 0)
    else
      Platform.bandwidth platform (Mapping.proc mapping (j - 1)) (Mapping.proc mapping j)
  in
  let out_bandwidth j =
    if j = m - 1 then Platform.io_bandwidth platform (Mapping.proc mapping j)
    else
      Platform.bandwidth platform (Mapping.proc mapping j) (Mapping.proc mapping (j + 1))
  in
  let in_time j = Application.delta app (first j - 1) /. in_bandwidth j in
  let out_time j = Application.delta app (last j) /. out_bandwidth j in
  (* Effective speed multiplier of a processor at a given time. *)
  let speed_factor u at =
    List.fold_left
      (fun acc (s : slowdown) -> if s.proc = u && s.at <= at then acc *. s.factor else acc)
      1. config.slowdowns
  in
  let comp_time j t ~at =
    let u = Mapping.proc mapping j in
    Application.work_sum app (first j) (last j)
    /. (Platform.speed platform u *. speed_factor u at)
    *. factors.(j).(t)
  in
  (* Fault state: each processor hosts one interval which handles its
     data sets sequentially, so there is at most one in-flight
     computation and at most one parked continuation per processor. *)
  let p = Platform.p platform in
  let down = Array.make p false in
  let parked : (Des.t -> unit) option array = Array.make p None in
  let inflight : (Des.handle * int * int) option array = Array.make p None in
  let retries_left = Array.init m (fun _ -> Array.make k config.retry.max_retries) in
  let killed = ref 0 and dropped = ref 0 and retries_used = ref 0 in
  (* Rendezvous cells for the m-1 internal boundaries. *)
  let cells = Array.init (max 0 (m - 1)) (fun _ -> Array.make k Empty) in
  (* Sender-side completion continuations (the send op blocks the
     upstream process until the transfer ends). *)
  let send_done = Array.init (max 0 (m - 1)) (fun _ -> Array.make k None) in
  let first_transfer_start = Array.make k nan in
  let completions = Array.make k nan in
  let des = Des.create () in
  (* The interval processes. Each is a chain of continuations; interval j
     handles data sets in order. *)
  let rec start_dataset j t des =
    if t < k then begin
      if j = 0 then begin
        let at = Float.max (Des.now des) arrivals.(t) in
        Des.schedule_at des ~time:at (fun des ->
            first_transfer_start.(t) <- Des.now des;
            transfer_in j t des)
      end
      else begin
        let boundary = j - 1 in
        match cells.(boundary).(t) with
        | Offered ->
          cells.(boundary).(t) <- Fired;
          transfer_in j t des
        | Dropped -> skip_dataset j t des
        | Empty ->
          cells.(boundary).(t) <-
            Waiting
              {
                data = (fun des -> transfer_in j t des);
                skip = (fun des -> skip_dataset j t des);
              }
        | Waiting _ | Fired -> assert false
      end
    end
  and skip_dataset j t des =
    (* The data set was dropped upstream: pass the drop on and move on. *)
    propagate_drop j t des;
    start_dataset j (t + 1) des
  and propagate_drop j t des =
    if j < m - 1 then begin
      match cells.(j).(t) with
      | Empty -> cells.(j).(t) <- Dropped
      | Waiting w ->
        cells.(j).(t) <- Dropped;
        Des.schedule des ~delay:0. w.skip
      | Offered | Fired | Dropped -> assert false
    end
  and transfer_in j t des =
    Des.schedule des ~delay:(in_time j) (fun des ->
        (* The upstream send completes with the transfer — even into a
           down processor: the interconnect is not the failed part. *)
        if j > 0 then begin
          match send_done.(j - 1).(t) with
          | Some continuation ->
            send_done.(j - 1).(t) <- None;
            Des.schedule des ~delay:0. continuation
          | None -> assert false (* the sender blocked before offering *)
        end;
        begin_compute j t des)
  and begin_compute j t des =
    let u = Mapping.proc mapping j in
    if down.(u) then begin
      assert (parked.(u) = None);
      parked.(u) <- Some (fun des -> begin_compute j t des)
    end
    else begin
      let handle =
        Des.schedule_cancellable des ~delay:(comp_time j t ~at:(Des.now des))
          (fun des ->
            inflight.(u) <- None;
            after_compute j t des)
      in
      inflight.(u) <- Some (handle, j, t)
    end
  and after_compute j t des =
    if j = m - 1 then
      Des.schedule des ~delay:(out_time j) (fun des ->
          completions.(t) <- Des.now des;
          start_dataset j (t + 1) des)
    else begin
      (* Offer the data downstream and block until the transfer ends. *)
      send_done.(j).(t) <- Some (fun des -> start_dataset j (t + 1) des);
      match cells.(j).(t) with
      | Waiting w ->
        cells.(j).(t) <- Fired;
        Des.schedule des ~delay:0. w.data
      | Empty -> cells.(j).(t) <- Offered
      | Offered | Fired | Dropped -> assert false
    end
  and drop_dataset j t des =
    incr dropped;
    propagate_drop j t des;
    start_dataset j (t + 1) des
  in
  let on_crash (c : crash) des =
    down.(c.proc) <- true;
    match inflight.(c.proc) with
    | None -> ()
    | Some (handle, j, t) ->
      Des.cancel des handle;
      inflight.(c.proc) <- None;
      incr killed;
      (* A retry waits for the recovery; a permanent crash drops the
         data set right away (nothing will ever replay it). *)
      if c.recover_at <> None && retries_left.(j).(t) > 0 then begin
        retries_left.(j).(t) <- retries_left.(j).(t) - 1;
        incr retries_used;
        assert (parked.(c.proc) = None);
        parked.(c.proc) <-
          Some
            (fun des ->
              Des.schedule des ~delay:config.retry.backoff (fun des ->
                  begin_compute j t des))
      end
      else drop_dataset j t des
  in
  let on_recover proc des =
    down.(proc) <- false;
    match parked.(proc) with
    | None -> ()
    | Some resume ->
      parked.(proc) <- None;
      resume des
  in
  (* Crash/recover events are inserted before any pipeline event, so on
     time ties a crash deterministically beats a completion: a
     computation finishing exactly at the crash instant is killed. *)
  List.iter
    (fun (c : crash) ->
      Des.schedule_at des ~time:c.at (fun des -> on_crash c des);
      Option.iter
        (fun r -> Des.schedule_at des ~time:r (fun des -> on_recover c.proc des))
        c.recover_at)
    (List.sort (fun (a : crash) b -> compare (a.at, a.proc) (b.at, b.proc)) config.crashes);
  for j = 0 to m - 1 do
    start_dataset j 0 des
  done;
  Des.run des;
  Obs.Counter.add c_killed !killed;
  Obs.Counter.add c_dropped !dropped;
  Obs.Counter.add c_retries !retries_used;
  (* Measurements, over the surviving data sets in arrival order. *)
  let survivors =
    List.filter (fun t -> not (Float.is_nan completions.(t))) (List.init k Fun.id)
  in
  let kd = List.length survivors in
  let none =
    {
      completed = 0;
      makespan = 0.;
      steady_period = 0.;
      throughput = 0.;
      latency_mean = nan;
      latency_p95 = nan;
      latency_max = nan;
      sojourn_max = nan;
      latencies = [];
      offered = k;
      dropped = !dropped;
      killed = !killed;
      retries = !retries_used;
    }
  in
  if kd = 0 then none
  else begin
    let running_max = Array.make kd 0. in
    let acc = ref neg_infinity in
    List.iteri
      (fun i t ->
        acc := Float.max !acc completions.(t);
        running_max.(i) <- !acc)
      survivors;
    let makespan = running_max.(kd - 1) in
    let steady_period =
      if kd < 2 then 0.
      else if kd < 4 then (running_max.(kd - 1) -. running_max.(0)) /. float_of_int (kd - 1)
      else begin
        let half = kd / 2 in
        (running_max.(kd - 1) -. running_max.(half)) /. float_of_int (kd - 1 - half)
      end
    in
    let latencies =
      List.map (fun t -> completions.(t) -. first_transfer_start.(t)) survivors
    in
    {
      none with
      completed = kd;
      makespan;
      steady_period;
      throughput = (if makespan > 0. then float_of_int kd /. makespan else infinity);
      latency_mean = Pipeline_util.Stats.mean latencies;
      latency_p95 = Pipeline_util.Stats.percentile 0.95 latencies;
      latency_max = snd (Pipeline_util.Stats.min_max latencies);
      sojourn_max =
        List.fold_left
          (fun acc t -> Float.max acc (completions.(t) -. arrivals.(t)))
          neg_infinity survivors;
      latencies;
    }
  end
