open Pipeline_model

type report = {
  analytic_period : float;
  analytic_latency : float;
  simulated_period : float;
  first_dataset_latency : float;
  max_dataset_latency : float;
  period_rel_error : float;
  latency_rel_error : float;
}

let rel_error ~reference v =
  if reference = 0. then Float.abs v
  else Float.abs (v -. reference) /. Float.abs reference

let check ?(datasets = 200) (inst : Instance.t) mapping =
  let cost = Cost.get inst.app inst.platform in
  let analytic_period = Cost.period cost mapping in
  let analytic_latency = Cost.latency cost mapping in
  let trace =
    Runner.run ~mode:Runner.One_port_no_overlap inst mapping ~datasets
  in
  let simulated_period = Trace.steady_period trace in
  let first_dataset_latency = Trace.latency trace 0 in
  let max_dataset_latency = Trace.max_latency trace in
  {
    analytic_period;
    analytic_latency;
    simulated_period;
    first_dataset_latency;
    max_dataset_latency;
    period_rel_error = rel_error ~reference:analytic_period simulated_period;
    latency_rel_error = rel_error ~reference:analytic_latency first_dataset_latency;
  }

let agrees ?(tolerance = 1e-6) report =
  report.period_rel_error <= tolerance && report.latency_rel_error <= tolerance

let pp fmt r =
  Format.fprintf fmt
    "analytic: period=%g latency=%g; simulated: period=%g latency[0]=%g \
     latency[max]=%g; errors: period=%.2e latency=%.2e"
    r.analytic_period r.analytic_latency r.simulated_period
    r.first_dataset_latency r.max_dataset_latency r.period_rel_error
    r.latency_rel_error
