open Pipeline_model
open Pipeline_core

let check_fully_homogeneous platform =
  if not (Platform.is_comm_homogeneous platform) then
    invalid_arg "Homogeneous: requires a comm-homogeneous platform";
  let speeds = Platform.speeds platform in
  if not (Array.for_all (fun s -> s = speeds.(0)) speeds) then
    invalid_arg "Homogeneous: requires identical processor speeds"

let costs (inst : Instance.t) =
  check_fully_homogeneous inst.platform;
  let b = Platform.io_bandwidth inst.platform 0 in
  let s = Platform.speed inst.platform 0 in
  let app = inst.app in
  let cycle d e =
    (Application.delta app (d - 1) /. b)
    +. (Application.work_sum app d e /. s)
    +. (Application.delta app e /. b)
  in
  let contrib d e =
    (Application.delta app (d - 1) /. b) +. (Application.work_sum app d e /. s)
  in
  (cycle, contrib)

let solution_of_cuts (inst : Instance.t) cuts =
  (* Processors are interchangeable: enrol them by index. *)
  let n = Application.n inst.app in
  let m = List.length cuts + 1 in
  Mapping.of_cuts ~n ~cuts ~procs:(List.init m Fun.id)
  |> Solution.of_mapping inst

(* Chains-style DP over (prefix, number of intervals); [combine] merges a
   prefix value with the appended interval's cost; the accept predicate
   prunes intervals over the cap. Returns value + cut reconstruction. *)
let prefix_dp ~n ~p ~cost ~combine ~accept =
  let p = min p n in
  let best = Array.make_matrix p (n + 1) infinity in
  let cut = Array.make_matrix p (n + 1) 0 in
  for k = 1 to n do
    let c = cost 1 k in
    if accept c then best.(0).(k) <- c
  done;
  for j = 1 to p - 1 do
    best.(j).(0) <- infinity;
    for k = 1 to n do
      best.(j).(k) <- best.(j - 1).(k);
      cut.(j).(k) <- cut.(j - 1).(k);
      for i = 1 to k - 1 do
        if best.(j - 1).(i) < infinity then begin
          let c = cost (i + 1) k in
          if accept c then begin
            let candidate = combine best.(j - 1).(i) c in
            if candidate < best.(j).(k) then begin
              best.(j).(k) <- candidate;
              cut.(j).(k) <- i
            end
          end
        end
      done
    done
  done;
  if best.(p - 1).(n) = infinity then None
  else begin
    let rec collect j k acc =
      if k = 0 then acc
      else
        let i = cut.(j).(k) in
        if i = 0 then acc else collect (max 0 (j - 1)) i (i :: acc)
    in
    Some (best.(p - 1).(n), collect (p - 1) n [])
  end

let min_period (inst : Instance.t) =
  let cycle, _ = costs inst in
  let n = Application.n inst.app and p = Platform.p inst.platform in
  match
    prefix_dp ~n ~p ~cost:cycle ~combine:Float.max ~accept:(fun _ -> true)
  with
  | Some (_, cuts) -> solution_of_cuts inst cuts
  | None -> assert false (* the single-interval mapping always exists *)

let min_latency_under_period (inst : Instance.t) ~period =
  let cycle, contrib = costs inst in
  let n = Application.n inst.app and p = Platform.p inst.platform in
  let cost d e =
    if Pipeline_util.Tol.meets (cycle d e) period then contrib d e else infinity
  in
  match
    prefix_dp ~n ~p ~cost ~combine:( +. ) ~accept:(fun c -> c < infinity)
  with
  | Some (_, cuts) -> Some (solution_of_cuts inst cuts)
  | None -> None

(* Identical speeds collapse the candidate set to one value per interval;
   the engine's cache serves the same floats as the local [cycle]. *)
let candidate_periods (inst : Instance.t) =
  Candidates.periods (Cost.get inst.app inst.platform)

let min_period_under_latency (inst : Instance.t) ~latency =
  let feasible period =
    match min_latency_under_period inst ~period with
    | Some sol when Solution.respects_latency sol latency -> Some sol
    | _ -> None
  in
  match
    Threshold.search_periods (Cost.get inst.app inst.platform) ~probe:feasible ()
  with
  | None -> None
  | Some found -> Some found.Threshold.payload

let pareto (inst : Instance.t) =
  Solution.front
    (List.filter_map
       (fun period -> min_latency_under_period inst ~period)
       (Array.to_list (candidate_periods inst)))
