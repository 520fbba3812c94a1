open Pipeline_model
module Solution = Pipeline_core.Solution

type outcome = {
  mapping : Mapping.t;
  period : float;
  latency : float;
  met_threshold : bool;
  fallback : bool;
  migrated_stages : int;
  migration_volume : float;
}

let validate (inst : Instance.t) before failed ~threshold =
  let p = Platform.p inst.platform in
  if Mapping.n before <> Application.n inst.app then
    invalid_arg "Ft_remap.remap: mapping does not match the application";
  if not (Mapping.valid_on before inst.platform) then
    invalid_arg "Ft_remap.remap: mapping does not fit the platform";
  if not (Float.is_finite threshold && threshold > 0.) then
    invalid_arg "Ft_remap.remap: threshold must be finite and > 0";
  if not (Platform.is_comm_homogeneous inst.platform) then
    invalid_arg "Ft_remap.remap: platform must be communication-homogeneous";
  List.iter
    (fun u ->
      if u < 0 || u >= p then
        invalid_arg "Ft_remap.remap: failed processor out of range")
    failed

let c_calls = Obs.Counter.make ~doc:"Ft_remap.remap invocations" "ft.remap.calls"

let c_kept =
  Obs.Counter.make ~doc:"remaps where the incumbent mapping survived"
    "ft.remap.kept"

let c_fallbacks =
  Obs.Counter.make ~doc:"remaps that fell back to the fastest survivor"
    "ft.remap.fallbacks"

let c_migrated =
  Obs.Counter.make ~doc:"stages migrated across all remaps"
    "ft.remap.migrated_stages"

let remap (inst : Instance.t) ~before ~failed ~threshold =
  validate inst before failed ~threshold;
  Obs.Counter.incr c_calls;
  let platform = inst.platform and app = inst.app in
  let p = Platform.p platform and n = Application.n app in
  let is_failed = Array.make p false in
  List.iter (fun u -> is_failed.(u) <- true) failed;
  let survivors =
    Array.of_list
      (List.filter (fun u -> not is_failed.(u)) (List.init p Fun.id))
  in
  if Array.length survivors = 0 then None
  else begin
    let met (sol : Solution.t) = Solution.respects_period sol threshold in
    let incumbent_ok =
      Array.for_all (fun u -> not is_failed.(u)) (Mapping.procs before)
      && met (Solution.of_mapping inst before)
    in
    if incumbent_ok then begin
      (* Nothing forces a migration: keep the running mapping. *)
      Obs.Counter.incr c_kept;
      let sol = Solution.of_mapping inst before in
      Some
        {
          mapping = before;
          period = sol.Solution.period;
          latency = sol.Solution.latency;
          met_threshold = true;
          fallback = false;
          migrated_stages = 0;
          migration_volume = 0.;
        }
    end
    else begin
    let sub_platform = Platform.restrict platform survivors in
    let sub_inst =
      Instance.make ~id:inst.id ~seed:inst.seed app sub_platform
    in
    let solved, fallback =
      match Pipeline_core.Sp_mono_p.solve sub_inst ~period:threshold with
      | Some sol -> (Mapping.renumber survivors sol.Solution.mapping, false)
      | None ->
        (* Online systems need some mapping: fastest survivor. *)
        let u = survivors.(Platform.fastest sub_platform) in
        (Mapping.single ~n ~proc:u, true)
    in
    let sol = Solution.of_mapping inst solved in
    let met_threshold = met sol in
    let migrated_stages, migration_volume =
      Mapping.migration app ~before ~after:solved
    in
    if fallback then Obs.Counter.incr c_fallbacks;
    Obs.Counter.add c_migrated migrated_stages;
    Some
      {
        mapping = solved;
        period = sol.Solution.period;
        latency = sol.Solution.latency;
        met_threshold;
        fallback;
        migrated_stages;
        migration_volume;
      }
    end
  end
