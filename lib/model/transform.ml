let coarsen ~factor app =
  if factor < 1 then invalid_arg "Transform.coarsen: factor must be >= 1";
  let n = Application.n app in
  let groups = (n + factor - 1) / factor in
  let last_of g = min (g * factor) n in
  let first_of g = ((g - 1) * factor) + 1 in
  let works =
    Array.init groups (fun g0 ->
        Application.work_sum app (first_of (g0 + 1)) (last_of (g0 + 1)))
  in
  let deltas =
    Array.init (groups + 1) (fun g ->
        if g = 0 then Application.delta app 0
        else Application.delta app (last_of g))
  in
  let labels =
    Array.init groups (fun g0 ->
        let g = g0 + 1 in
        String.concat "+"
          (List.init
             (last_of g - first_of g + 1)
             (fun i -> Application.label app (first_of g + i))))
  in
  Application.make ~labels ~deltas works

let refine_mapping ~factor ~n mapping =
  if factor < 1 then invalid_arg "Transform.refine_mapping: factor must be >= 1";
  let groups = (n + factor - 1) / factor in
  if Mapping.n mapping <> groups then
    invalid_arg "Transform.refine_mapping: mapping does not match the coarse size";
  let pairs =
    List.map
      (fun (iv, u) ->
        let first = ((Interval.first iv - 1) * factor) + 1 in
        let last = min (Interval.last iv * factor) n in
        (Interval.make ~first ~last, u))
      (Mapping.intervals mapping)
  in
  Mapping.make ~n pairs

let coarse_solve ~factor ~solve (inst : Instance.t) =
  let n = Application.n inst.app in
  let coarse =
    Instance.make ~id:inst.id ~seed:inst.seed (coarsen ~factor inst.app)
      inst.platform
  in
  Option.map (refine_mapping ~factor ~n) (solve coarse)

let scale ?(work = 1.) ?(data = 1.) app =
  if work <= 0. || data <= 0. then
    invalid_arg "Transform.scale: factors must be > 0";
  let works = Array.map (fun w -> w *. work) (Application.works app) in
  let deltas = Array.map (fun d -> d *. data) (Application.deltas app) in
  let labels =
    Array.init (Application.n app) (fun i -> Application.label app (i + 1))
  in
  Application.make ~labels ~deltas works

(* Metamorphic platform transformations (DESIGN.md §13):
   instance rewrites with known exact effects on the optima, used as
   scale-independent oracles by the registry-wide property tests. *)

let scale_rates ~factor platform = Platform.scale_rates ~factor platform

let drop_comm app =
  let n = Application.n app in
  let labels = Array.init n (fun i -> Application.label app (i + 1)) in
  Application.make ~labels ~deltas:(Array.make (n + 1) 0.) (Application.works app)

let comm_homogenise ~bandwidth platform =
  Platform.comm_homogeneous ~bandwidth (Platform.speeds platform)
