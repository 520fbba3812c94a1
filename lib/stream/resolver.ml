open Pipeline_model
module Tol = Pipeline_util.Tol

type entry = {
  survivors : int array;
  live_engine : Cost.t;  (* all processors, effective (degraded) speeds *)
  sub_inst : Instance.t option;  (* survivors only; None when all dead *)
  sub_engine : Cost.t option;
}

type cache = { inst : Instance.t; table : (string, entry) Hashtbl.t }

let cache (inst : Instance.t) =
  if not (Platform.is_comm_homogeneous inst.platform) then
    invalid_arg "Resolver.cache: platform must be communication-homogeneous";
  { inst; table = Hashtbl.create 16 }

let instance cache = cache.inst

type mode = Kept | Repaired | Solved | Fallback

type plan = {
  mapping : Mapping.t;
  period : float;
  latency : float;
  met_threshold : bool;
  mode : mode;
  migrated_stages : int;
  migration_volume : float;
}

let c_cache_hits =
  Obs.Counter.make ~doc:"resolver live-platform cache hits" "stream.resolve.cache_hits"

let c_cache_misses =
  Obs.Counter.make ~doc:"resolver live-platform cache misses"
    "stream.resolve.cache_misses"

let c_warm = Obs.Counter.make ~doc:"warm resolves" "stream.resolve.warm_calls"
let c_cold = Obs.Counter.make ~doc:"cold (oracle) resolves" "stream.resolve.cold_calls"
let c_kept = Obs.Counter.make ~doc:"resolves that kept the incumbent" "stream.resolve.kept"

let c_repaired =
  Obs.Counter.make ~doc:"resolves settled by the dead-interval repair"
    "stream.resolve.repaired"

let c_solved =
  Obs.Counter.make ~doc:"resolves that ran the full heuristic" "stream.resolve.solved"

let c_fallbacks =
  Obs.Counter.make ~doc:"resolves degraded to the fastest survivor"
    "stream.resolve.fallbacks"

let c_pruned =
  Obs.Counter.make ~doc:"heuristic solves skipped by the candidate-set prune"
    "stream.resolve.pruned"

let c_migrated =
  Obs.Counter.make ~doc:"stages migrated across all resolves"
    "stream.resolve.migrated_stages"

(* Effective speed of a processor under the composed churn factors. *)
let effective_speed (inst : Instance.t) state u =
  Platform.speed inst.platform u *. Churn.factor state u

let build_entry (inst : Instance.t) state =
  let platform = inst.platform and app = inst.app in
  let p = Platform.p platform in
  let survivors = Churn.survivors state in
  let live_speeds = Array.init p (fun u -> effective_speed inst state u) in
  let live_platform = Platform.with_speeds platform live_speeds in
  let live_engine = Cost.make app live_platform in
  let sub_inst, sub_engine =
    if Array.length survivors = 0 then (None, None)
    else begin
      let sub_platform = Platform.restrict live_platform survivors in
      let sub = Instance.make ~id:inst.id ~seed:inst.seed app sub_platform in
      (Some sub, Some (Cost.make app sub_platform))
    end
  in
  { survivors; live_engine; sub_inst; sub_engine }

let entry cache state =
  let key = Churn.fingerprint state in
  match Hashtbl.find_opt cache.table key with
  | Some e ->
    Obs.Counter.incr c_cache_hits;
    e
  | None ->
    Obs.Counter.incr c_cache_misses;
    let e = build_entry cache.inst state in
    Hashtbl.add cache.table key e;
    e

let check_mapping (inst : Instance.t) mapping who =
  if Mapping.n mapping <> Application.n inst.app then
    invalid_arg (who ^ ": mapping does not match the application");
  if not (Mapping.valid_on mapping inst.platform) then
    invalid_arg (who ^ ": mapping does not fit the platform")

let evaluate_on engine state mapping =
  if Array.exists (fun u -> not (Churn.alive state u)) (Mapping.procs mapping) then
    None
  else Some (Cost.summary engine mapping)

let evaluate cache state mapping =
  check_mapping cache.inst mapping "Resolver.evaluate";
  evaluate_on (entry cache state).live_engine state mapping

let default_heuristic () =
  match Pipeline_registry.find "h1-sp-mono-p" with
  | Some h -> h
  | None -> assert false

let check_heuristic (h : Pipeline_registry.info) =
  (match h.kind with
  | Pipeline_registry.Period_fixed -> ()
  | Pipeline_registry.Latency_fixed ->
    invalid_arg "Resolver.resolve: heuristic must take a period threshold");
  match h.stack with
  | Pipeline_registry.Core | Pipeline_registry.Extension -> ()
  | _ ->
    invalid_arg
      "Resolver.resolve: heuristic must be a plain-mapping (core or extension) row"

let plan_of (inst : Instance.t) engine state ~before ~threshold ~mode mapping =
  match evaluate_on engine state mapping with
  | None -> assert false (* resolver plans only enrol live processors *)
  | Some s ->
    let migrated_stages, migration_volume =
      Mapping.migration inst.app ~before ~after:mapping
    in
    Obs.Counter.add c_migrated migrated_stages;
    {
      mapping;
      period = s.Cost.period;
      latency = s.Cost.latency;
      met_threshold = Tol.meets s.Cost.period threshold;
      mode;
      migrated_stages;
      migration_volume;
    }

(* The dead-interval repair: move only the intervals sitting on dead
   processors, heaviest interval to the fastest free survivor. *)
let repair (inst : Instance.t) e state before =
  let dead =
    List.filter
      (fun j -> not (Churn.alive state (Mapping.proc before j)))
      (List.init (Mapping.m before) Fun.id)
  in
  if dead = [] then None
  else begin
    let used = Array.make (Platform.p inst.platform) false in
    Array.iter
      (fun u -> if Churn.alive state u then used.(u) <- true)
      (Mapping.procs before);
    let free =
      Array.of_list (List.filter (fun u -> not used.(u)) (Array.to_list e.survivors))
    in
    if Array.length free < List.length dead then None
    else begin
      (* Fastest free survivors first; heaviest dead intervals first. *)
      Array.sort
        (fun u v ->
          match Float.compare (effective_speed inst state v) (effective_speed inst state u) with
          | 0 -> compare u v
          | c -> c)
        free;
      let weight j =
        let iv = Mapping.interval before j in
        Cost.work_sum e.live_engine ~d:(Interval.first iv) ~e:(Interval.last iv)
      in
      let dead_by_weight =
        List.sort
          (fun a b ->
            match Float.compare (weight b) (weight a) with 0 -> compare a b | c -> c)
          dead
      in
      let target = Hashtbl.create 8 in
      List.iteri (fun i j -> Hashtbl.add target j free.(i)) dead_by_weight;
      let assignment =
        List.mapi
          (fun j (iv, u) ->
            match Hashtbl.find_opt target j with
            | Some u' -> (iv, u')
            | None -> (iv, u))
          (Mapping.intervals before)
      in
      Some (Mapping.make ~n:(Mapping.n before) assignment)
    end
  end

let fastest_survivor inst state survivors =
  let best = ref survivors.(0) in
  Array.iter
    (fun u -> if effective_speed inst state u > effective_speed inst state !best then best := u)
    survivors;
  !best

let resolve ?heuristic ~strategy cache state ~before ~threshold =
  let inst = cache.inst in
  check_mapping inst before "Resolver.resolve";
  if not (Float.is_finite threshold && threshold > 0.) then
    invalid_arg "Resolver.resolve: threshold must be finite and > 0";
  let heuristic = match heuristic with Some h -> h | None -> default_heuristic () in
  check_heuristic heuristic;
  let n = Application.n inst.app in
  Obs.span "stream:resolve" @@ fun () ->
  match strategy with
  | `Warm -> begin
    Obs.Counter.incr c_warm;
    let e = entry cache state in
    if Array.length e.survivors = 0 then None
    else begin
      let finish = plan_of inst e.live_engine state ~before ~threshold in
      let keep =
        match evaluate_on e.live_engine state before with
        | Some s when Tol.meets s.Cost.period threshold ->
          Obs.Counter.incr c_kept;
          Some (finish ~mode:Kept before)
        | _ -> None
      in
      match keep with
      | Some plan -> Some plan
      | None -> begin
        let repaired =
          match repair inst e state before with
          | Some mapping ->
            let plan = finish ~mode:Repaired mapping in
            if plan.met_threshold then begin
              Obs.Counter.incr c_repaired;
              Some plan
            end
            else None
          | None -> None
        in
        match repaired with
        | Some plan -> Some plan
        | None -> begin
          let sub_inst = Option.get e.sub_inst and sub_engine = Option.get e.sub_engine in
          let feasible =
            (* The engine-cached candidate set bounds every achievable
               period from below: a threshold under the smallest
               candidate needs no heuristic run to be refuted. Past
               the array cap the lattice answers without building it. *)
            match Candidates.period_ceiling sub_engine neg_infinity with
            | Some c -> Tol.meets c threshold
            | None -> false
          in
          if not feasible then Obs.Counter.incr c_pruned;
          let solved =
            if not feasible then None
            else
              match heuristic.Pipeline_registry.solve sub_inst ~threshold with
              | Some outcome -> (
                match Pipeline_registry.solution_of_outcome outcome with
                | Some sol ->
                  Obs.Counter.incr c_solved;
                  Some
                    (finish ~mode:Solved
                       (Mapping.renumber e.survivors sol.Pipeline_core.Solution.mapping))
                | None -> None)
              | None -> None
          in
          match solved with
          | Some plan -> Some plan
          | None ->
            Obs.Counter.incr c_fallbacks;
            let u = fastest_survivor inst state e.survivors in
            Some (finish ~mode:Fallback (Mapping.single ~n ~proc:u))
        end
      end
    end
  end
  | `Cold -> begin
    (* The oracle: rebuild everything from scratch, no keep, no repair,
       no prune — a full heuristic solve at every event. *)
    Obs.Counter.incr c_cold;
    let e = build_entry inst state in
    if Array.length e.survivors = 0 then None
    else begin
      let finish = plan_of inst e.live_engine state ~before ~threshold in
      let sub_inst = Option.get e.sub_inst in
      match heuristic.Pipeline_registry.solve sub_inst ~threshold with
      | Some outcome -> (
        match Pipeline_registry.solution_of_outcome outcome with
        | Some sol ->
          Some
            (finish ~mode:Solved
               (Mapping.renumber e.survivors sol.Pipeline_core.Solution.mapping))
        | None ->
          Obs.Counter.incr c_fallbacks;
          let u = fastest_survivor inst state e.survivors in
          Some (finish ~mode:Fallback (Mapping.single ~n ~proc:u)))
      | None ->
        Obs.Counter.incr c_fallbacks;
        let u = fastest_survivor inst state e.survivors in
        Some (finish ~mode:Fallback (Mapping.single ~n ~proc:u))
    end
  end
