type t = {
  id : int;
  seed : int;
  app : Application.t;
  platform : Platform.t;
}

let make ?(id = 0) ?(seed = 0) app platform = { id; seed; app; platform }

let single_proc_mapping t =
  Mapping.single ~n:(Application.n t.app) ~proc:(Platform.fastest t.platform)

let optimal_latency t = Cost.latency (Cost.get t.app t.platform) (single_proc_mapping t)
let single_proc_period t = Cost.period (Cost.get t.app t.platform) (single_proc_mapping t)

let pp fmt t =
  Format.fprintf fmt "instance#%d[seed=%d; %a; %a]" t.id t.seed Application.pp
    t.app Platform.pp t.platform
