(* Mono- versus bi-criteria heuristics as the cluster grows.

   Run with:  dune exec examples/cluster_scaling.exe

   The paper's headline experimental conclusion (§5.3): with few
   processors the simple mono-criterion splitting heuristics are very
   competitive, but on large platforms the bi-criteria variants take
   over. This example measures exactly that claim: the same random E2
   applications are mapped onto clusters of 5, 10, 50 and 100 machines,
   and for each size we report the average latency achieved at a common
   mid-range period threshold (period-fixed family) and the average
   period at a common latency budget (latency-fixed family). *)

open Pipeline_model
module Registry = Pipeline_registry
module Rng = Pipeline_util.Rng

let trials = 20
let n = 40

let instances p =
  List.map
    (fun i ->
      let rng = Rng.create ((7919 * i) + p) in
      let app = App_generator.generate rng (App_generator.e2 ~n) in
      let platform = Platform_generator.comm_homogeneous rng ~p in
      Instance.make ~id:i app platform)
    (List.init trials Fun.id)

let average xs =
  match xs with
  | [] -> nan
  | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* Average objective achieved by a heuristic over the batch at a
   threshold derived per instance (fraction of the trivial threshold:
   single-processor period, resp. a multiple of the optimal latency). *)
let measure (info : Registry.info) batch =
  let results =
    List.filter_map
      (fun inst ->
        let threshold =
          match info.kind with
          | Registry.Period_fixed -> Instance.single_proc_period inst *. 0.45
          | Registry.Latency_fixed -> Instance.optimal_latency inst *. 1.6
        in
        Option.map
          (fun (o : Registry.outcome) ->
            match info.kind with
            | Registry.Period_fixed -> o.latency
            | Registry.Latency_fixed -> o.period)
          (info.solve inst ~threshold))
      batch
  in
  (average results, List.length results)

let () =
  Format.printf
    "E2 applications, n = %d stages, %d random app/platform pairs per point.@."
    n trials;
  Format.printf
    "Period-fixed family: average latency at period <= 0.45 x single-machine.@.";
  Format.printf
    "Latency-fixed family: average period at latency <= 1.6 x optimal.@.@.";
  Format.printf "%-20s" "heuristic";
  List.iter (fun p -> Format.printf "%14s" (Printf.sprintf "p=%d" p)) [ 5; 10; 50; 100 ];
  Format.printf "@.";
  let batches = List.map (fun p -> (p, instances p)) [ 5; 10; 50; 100 ] in
  List.iter
    (fun (info : Registry.info) ->
      Format.printf "%-20s" info.paper_name;
      List.iter
        (fun (_, batch) ->
          let avg, ok = measure info batch in
          if ok = 0 then Format.printf "%14s" "-"
          else Format.printf "%11.1f/%02d" avg ok)
        batches;
      Format.printf "@.")
    Registry.paper;
  Format.printf
    "@.(value = average objective over successful runs / number of successes;@.";
  Format.printf
    " lower is better; watch the bi-criteria rows overtake as p grows.)@."
