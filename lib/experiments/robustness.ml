open Pipeline_model

let inflation ?(datasets = 300) ?(seed = 1) (inst : Instance.t) mapping ~noise =
  let analytic = Metrics.period inst.app inst.platform mapping in
  let config =
    {
      Pipeline_sim.Workload_sim.default_config with
      noise =
        (if noise = 0. then Pipeline_sim.Workload_sim.No_noise
         else Pipeline_sim.Workload_sim.Uniform_factor noise);
      datasets;
      seed;
    }
  in
  let stats = Pipeline_sim.Workload_sim.run ~config inst mapping in
  stats.Pipeline_sim.Workload_sim.steady_period /. analytic

let default_levels = [ 0.; 0.05; 0.1; 0.2; 0.3; 0.5 ]

let series ?datasets ?(noise_levels = default_levels)
    (info : Pipeline_registry.info) instances =
  (* Both per-pair loops (mapping, then simulating) fan out across the
     domain pool; each simulation draws from a stream derived from its
     instance's seed, so no state is shared between tasks. *)
  let mapped =
    Array.of_list
      (List.filter_map Fun.id
         (Array.to_list
            (Pipeline_util.Pool.map
               (fun inst ->
                 let threshold = Instance.single_proc_period inst *. 0.6 in
                 Option.bind (info.Pipeline_registry.solve inst ~threshold)
                   (fun (o : Pipeline_registry.outcome) ->
                     Option.map
                       (fun mapping -> (inst, mapping))
                       (Deal_mapping.to_mapping o.mapping)))
               (Array.of_list instances))))
  in
  let points =
    List.filter_map
      (fun noise ->
        if Array.length mapped = 0 then None
        else
          let values =
            Array.to_list
              (Pipeline_util.Pool.map
                 (fun (inst, mapping) ->
                   inflation ?datasets ~seed:(inst.Instance.seed + 7) inst
                     mapping ~noise)
                 mapped)
          in
          Some (noise, Pipeline_util.Stats.mean values))
      noise_levels
  in
  Pipeline_util.Series.make ~label:info.Pipeline_registry.paper_name points
