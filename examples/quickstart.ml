(* Quickstart: map a small pipeline onto a heterogeneous cluster.

   Run with:  dune exec examples/quickstart.exe

   Walks through the whole public API: build an application and a
   platform, evaluate a mapping by hand, run the six heuristics of the
   paper at a period threshold, compare with the exact solvers, and
   verify a mapping operationally with the simulator. *)

open Pipeline_model
open Pipeline_core
module Registry = Pipeline_registry

let () =
  (* A 6-stage pipeline: stage k performs w_k operations and passes a
     message of size δ_k to its successor (δ_0 enters from outside). *)
  let app =
    Application.make
      ~labels:[| "parse"; "filter"; "transform"; "join"; "rank"; "emit" |]
      ~deltas:[| 40.; 25.; 25.; 60.; 30.; 10.; 5. |]
      [| 12.; 30.; 45.; 80.; 22.; 8. |]
  in
  (* Five workstations of different speeds on a 10 MB/s switched LAN:
     the paper's Communication Homogeneous class. *)
  let platform = Platform.comm_homogeneous ~bandwidth:10. [| 6.; 14.; 3.; 9.; 11. |] in
  let inst = Instance.make app platform in

  Format.printf "Instance: %a@.@." Instance.pp inst;

  (* Evaluate a hand-written mapping with the paper's cost model. *)
  let manual = Mapping.of_cuts ~n:6 ~cuts:[ 3; 4 ] ~procs:[ 1; 4; 3 ] in
  let s = Cost.summary (Cost.get app platform) manual in
  Format.printf "Manual mapping %s:@.  period=%g latency=%g intervals=%d@.@."
    (Mapping.to_string manual) s.period s.latency s.intervals;

  (* Lemma 1: the latency optimum maps everything to the fastest CPU. *)
  let latency_opt = Pipeline_optimal.Latency.solve inst in
  Format.printf "Latency optimum (Lemma 1): %a@.@." Solution.pp latency_opt;

  (* The six heuristics at a fixed period threshold. *)
  let threshold = 15.0 in
  Format.printf "--- Heuristics at period <= %g (fixed latency: %g) ---@."
    threshold
    (latency_opt.Solution.latency *. 1.4);
  List.iter
    (fun (info : Registry.info) ->
      let t =
        match info.kind with
        | Registry.Period_fixed -> threshold
        | Registry.Latency_fixed -> latency_opt.Solution.latency *. 1.4
      in
      match Option.bind (info.solve inst ~threshold:t) Registry.solution_of_outcome with
      | None -> Format.printf "%-18s FAILED at %g@." info.paper_name t
      | Some sol -> Format.printf "%-18s %a@." info.paper_name Solution.pp sol)
    Registry.paper;

  (* Ground truth (exponential in p; fine for p = 5). *)
  let exact = Pipeline_optimal.Bicriteria.min_latency_under_period inst ~period:threshold in
  (match exact with
  | Some sol -> Format.printf "%-18s %a@.@." "exact optimum" Solution.pp sol
  | None -> Format.printf "no mapping achieves period %g@.@." threshold);

  (* The full period/latency trade-off curve. *)
  Format.printf "--- Pareto front (period, latency) ---@.";
  List.iter
    (fun (sol : Solution.t) ->
      Format.printf "  %8.3f  %8.3f   %s@." sol.Solution.period sol.Solution.latency
        (Mapping.to_string sol.Solution.mapping))
    (Pipeline_optimal.Bicriteria.pareto inst);

  (* Execute the best heuristic mapping on the simulated platform. *)
  match Sp_mono_p.solve inst ~period:threshold with
  | None -> ()
  | Some sol ->
    let report = Pipeline_sim.Validate.check ~datasets:100 inst sol.Solution.mapping in
    Format.printf "@.Simulator check of %s:@.  %a@."
      (Mapping.to_string sol.Solution.mapping)
      Pipeline_sim.Validate.pp report;
    let trace =
      Pipeline_sim.Runner.run inst sol.Solution.mapping ~datasets:4
    in
    Format.printf "@.Gantt (4 data sets, r=receive c=compute s=send):@.%s@."
      (Pipeline_sim.Trace.gantt ~width:76 trace)
