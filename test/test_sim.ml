open Pipeline_model
open Pipeline_sim
module Rng = Pipeline_util.Rng

let gen_seed = QCheck2.Gen.int_range 0 100_000

(* A random interval mapping of an instance. *)
let random_mapping rng (inst : Instance.t) =
  let n = Application.n inst.app and p = Platform.p inst.platform in
  let m = 1 + Rng.int rng (min n p) in
  let cuts =
    if m = 1 then []
    else begin
      (* choose m-1 distinct cut positions in [1, n-1] *)
      let positions = Array.init (n - 1) (fun i -> i + 1) in
      Rng.shuffle rng positions;
      List.sort compare (Array.to_list (Array.sub positions 0 (m - 1)))
    end
  in
  let procs = Array.to_list (Array.sub (Rng.permutation rng p) 0 m) in
  Mapping.of_cuts ~n ~cuts ~procs

let gen_instance_mapping =
  QCheck2.Gen.map
    (fun seed ->
      let inst = Helpers.random_instance ~n_max:8 ~p_max:5 seed in
      let rng = Rng.create (seed + 77) in
      (inst, random_mapping rng inst))
    gen_seed

(* ------------------------------------------------------------------ *)
(* Trace basics                                                        *)
(* ------------------------------------------------------------------ *)

let run_small ?mode ?(datasets = 20) () =
  let inst = Helpers.small_instance () in
  let mapping = Mapping.of_cuts ~n:4 ~cuts:[ 2 ] ~procs:[ 1; 0 ] in
  (inst, mapping, Runner.run ?mode inst mapping ~datasets)

let test_trace_shape () =
  let _, _, trace = run_small () in
  Alcotest.(check int) "datasets" 20 (Trace.datasets trace);
  Alcotest.(check int) "intervals" 2 (Trace.intervals trace);
  (* per dataset: recv+comp per interval, plus the inner transfer's send
     mirror, plus the final send: 2*(recv+comp) + send(j=0 mirror) + send(out) *)
  Alcotest.(check int) "op count" (20 * 6) (List.length (Trace.ops trace))

let test_trace_ops_sorted () =
  let _, _, trace = run_small () in
  let rec sorted = function
    | [] | [ _ ] -> true
    | a :: (b :: _ as rest) -> a.Op.start <= b.Op.start && sorted rest
  in
  Alcotest.(check bool) "sorted by start" true (sorted (Trace.ops trace))

let test_trace_first_dataset_latency () =
  let inst, mapping, trace = run_small () in
  Helpers.check_float "dataset 0 = analytic latency"
    (Cost.latency (Cost.get inst.Instance.app inst.Instance.platform) mapping)
    (Trace.latency trace 0)

let test_trace_steady_period () =
  let inst, mapping, trace = run_small () in
  Helpers.check_float "steady period = analytic"
    (Cost.period (Cost.get inst.Instance.app inst.Instance.platform) mapping)
    (Trace.steady_period trace)

let test_trace_monotone_completions () =
  let _, _, trace = run_small () in
  for d = 1 to Trace.datasets trace - 1 do
    Alcotest.(check bool) "in order" true
      (Trace.output_completion trace d >= Trace.output_completion trace (d - 1))
  done

let test_trace_utilisation_bounds () =
  let inst, _, trace = run_small () in
  for u = 0 to Platform.p inst.Instance.platform - 1 do
    let util = Trace.utilisation trace ~proc:u in
    Alcotest.(check bool) "in [0,1]" true (util >= 0. && util <= 1. +. 1e-9)
  done;
  Helpers.check_float "unenrolled processor idle" 0. (Trace.utilisation trace ~proc:2)

let test_trace_gantt () =
  let _, _, trace = run_small ~datasets:3 () in
  let g = Trace.gantt ~width:60 trace in
  Alcotest.(check bool) "has rows" true (Str_find.contains g "P1");
  Alcotest.(check bool) "has compute marks" true (Str_find.contains g "c")

let test_trace_rejects_bad_ops () =
  let bad =
    [ Op.{ kind = Compute; interval = 5; proc = 0; dataset = 0; start = 0.; finish = 1. } ]
  in
  Alcotest.check_raises "unknown interval"
    (Invalid_argument "Trace.make: op with unknown interval") (fun () ->
      ignore (Trace.make ~datasets:1 ~intervals:1 ~procs:[| 0 |] bad))

let test_op_pp_duration () =
  let op =
    Op.{ kind = Send; interval = 1; proc = 3; dataset = 2; start = 1.5; finish = 4. }
  in
  Helpers.check_float "duration" 2.5 (Op.duration op);
  Alcotest.(check string) "kind" "send" (Op.kind_to_string op.Op.kind)


let test_trace_to_csv () =
  let _, _, trace = run_small ~datasets:2 () in
  let csv = Trace.to_csv trace in
  Alcotest.(check bool) "header" true
    (Str_find.contains csv "kind,interval,proc,dataset,start,finish");
  Alcotest.(check int) "one line per op + header"
    (List.length (Trace.ops trace) + 2(* header + trailing newline *))
    (List.length (String.split_on_char '\n' csv))

let test_trace_to_chrome_json () =
  let _, _, trace = run_small ~datasets:2 () in
  let json = Trace.to_chrome_json trace in
  Alcotest.(check bool) "array" true
    (json.[0] = '[' && json.[String.length json - 1] = ']');
  Alcotest.(check bool) "has complete events" true
    (Str_find.contains json "\"ph\":\"X\"");
  Alcotest.(check bool) "has compute spans" true (Str_find.contains json "comp")

(* ------------------------------------------------------------------ *)
(* One-port/no-overlap semantics                                       *)
(* ------------------------------------------------------------------ *)

let test_no_overlap_serialises_processor () =
  let _, _, trace = run_small () in
  (* Within a processor, operations must not overlap in time. *)
  let by_proc = Hashtbl.create 4 in
  List.iter
    (fun (op : Op.t) ->
      let l = try Hashtbl.find by_proc op.Op.proc with Not_found -> [] in
      Hashtbl.replace by_proc op.Op.proc (op :: l))
    (Trace.ops trace);
  Hashtbl.iter
    (fun _proc ops ->
      let sorted = List.sort (fun (a : Op.t) b -> compare a.Op.start b.Op.start) ops in
      let rec walk = function
        | [] | [ _ ] -> ()
        | a :: (b :: _ as rest) ->
          (* rendezvous mirrors share the window; treat the pair (send of
             j, recv of j+1) as one op on each side, so strict check is:
             next op starts no earlier than previous finishes. *)
          Alcotest.(check bool) "no overlap" true (b.Op.start >= a.Op.finish -. 1e-9);
          walk rest
      in
      walk sorted)
    by_proc

let test_transfer_is_rendezvous () =
  let _, _, trace = run_small ~datasets:5 () in
  (* For each inner boundary and dataset, the Send on interval j and the
     Receive on interval j+1 must occupy the same window. *)
  let ops = Trace.ops trace in
  List.iter
    (fun (s : Op.t) ->
      if s.Op.kind = Op.Send && s.Op.interval = 0 then begin
        match
          List.find_opt
            (fun (r : Op.t) ->
              r.Op.kind = Op.Receive && r.Op.interval = 1
              && r.Op.dataset = s.Op.dataset)
            ops
        with
        | None -> Alcotest.fail "missing matching receive"
        | Some r ->
          Helpers.check_float "same start" s.Op.start r.Op.start;
          Helpers.check_float "same finish" s.Op.finish r.Op.finish
      end)
    ops

let prop_validate_agrees =
  Helpers.qtest ~count:60 "simulator reproduces equations (1) and (2)"
    gen_instance_mapping
    (fun (inst, mapping) ->
      let report = Validate.check ~datasets:150 inst mapping in
      Validate.agrees ~tolerance:1e-6 report)

let prop_max_latency_at_least_analytic =
  Helpers.qtest ~count:40 "contention can only increase response times"
    gen_instance_mapping
    (fun (inst, mapping) ->
      let report = Validate.check ~datasets:60 inst mapping in
      report.Validate.max_dataset_latency
      >= report.Validate.analytic_latency -. 1e-9)



let prop_validate_agrees_het =
  (* The simulator and the cost model also agree on fully heterogeneous
     platforms (per-link boundary transfers). *)
  Helpers.qtest ~count:40 "equations hold operationally on het platforms too"
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = 1 + Rng.int rng 8 in
      let p = 1 + Rng.int rng 5 in
      let works = Array.init n (fun _ -> float_of_int (Rng.int_in rng 1 20)) in
      let deltas =
        Array.init (n + 1) (fun _ -> float_of_int (Rng.int_in rng 0 30))
      in
      let app = Application.make ~deltas works in
      let platform = Platform_generator.fully_heterogeneous rng ~p in
      let inst = Instance.make app platform in
      let mapping = random_mapping rng inst in
      Validate.agrees ~tolerance:1e-6 (Validate.check ~datasets:150 inst mapping))

(* ------------------------------------------------------------------ *)
(* Overlap ablation                                                    *)
(* ------------------------------------------------------------------ *)

let prop_overlap_not_slower =
  Helpers.qtest ~count:40 "multi-port overlap never increases the period"
    gen_instance_mapping
    (fun (inst, mapping) ->
      let no = Runner.run ~mode:Runner.One_port_no_overlap inst mapping ~datasets:120 in
      let ov = Runner.run ~mode:Runner.Multi_port_overlap inst mapping ~datasets:120 in
      Trace.steady_period ov <= Trace.steady_period no +. 1e-6)

let test_overlap_reaches_max_component () =
  (* Balanced case where overlap helps: one interval, comm = comp. With
     no overlap the cycle is in+comp+out; with overlap it approaches
     max(in, comp, out). *)
  let app = Application.make ~deltas:[| 10.; 10. |] [| 10. |] in
  let pl = Platform.comm_homogeneous ~bandwidth:1. [| 1. |] in
  let inst = Instance.make app pl in
  let mapping = Mapping.single ~n:1 ~proc:0 in
  let no = Runner.run ~mode:Runner.One_port_no_overlap inst mapping ~datasets:200 in
  let ov = Runner.run ~mode:Runner.Multi_port_overlap inst mapping ~datasets:200 in
  Helpers.check_float "no overlap: 30" 30. (Trace.steady_period no);
  Helpers.check_float "overlap: 10" 10. (Trace.steady_period ov)

let test_runner_rejects_bad_input () =
  let inst = Helpers.small_instance () in
  let mapping = Mapping.single ~n:4 ~proc:0 in
  Alcotest.check_raises "datasets < 1"
    (Invalid_argument "Runner.run: datasets must be >= 1") (fun () ->
      ignore (Runner.run inst mapping ~datasets:0));
  let bad = Mapping.single ~n:3 ~proc:0 in
  Alcotest.check_raises "wrong n"
    (Invalid_argument "Runner.run: mapping does not match the application")
    (fun () -> ignore (Runner.run inst bad ~datasets:1))

let test_validate_report_fields () =
  let inst = Helpers.small_instance () in
  let mapping = Mapping.of_cuts ~n:4 ~cuts:[ 2 ] ~procs:[ 1; 0 ] in
  let r = Validate.check ~datasets:100 inst mapping in
  Helpers.check_float "analytic period" 8. r.Validate.analytic_period;
  Helpers.check_float "analytic latency" 12. r.Validate.analytic_latency;
  Alcotest.(check bool) "agrees" true (Validate.agrees r);
  let s = Format.asprintf "%a" Validate.pp r in
  Alcotest.(check bool) "pp mentions period" true (Str_find.contains s "period")


(* ------------------------------------------------------------------ *)
(* Heap / Des kernel                                                   *)
(* ------------------------------------------------------------------ *)

let test_heap_orders () =
  let h = Pipeline_sim.Heap.create () in
  List.iter (fun (p, v) -> Pipeline_sim.Heap.push h ~priority:p v)
    [ (3., "c"); (1., "a"); (2., "b") ];
  let popped = List.init 3 (fun _ -> Pipeline_sim.Heap.pop h) in
  Alcotest.(check (list (option (pair (float 0.) string))))
    "sorted"
    [ Some (1., "a"); Some (2., "b"); Some (3., "c") ]
    popped;
  Alcotest.(check bool) "empty" true (Pipeline_sim.Heap.is_empty h)

let test_heap_fifo_ties () =
  let h = Pipeline_sim.Heap.create () in
  List.iter (fun v -> Pipeline_sim.Heap.push h ~priority:1. v) [ 1; 2; 3 ];
  let order = List.init 3 (fun _ -> snd (Option.get (Pipeline_sim.Heap.pop h))) in
  Alcotest.(check (list int)) "insertion order on ties" [ 1; 2; 3 ] order

let test_heap_random_sorted () =
  let rng = Rng.create 99 in
  let h = Pipeline_sim.Heap.create () in
  let values = List.init 500 (fun _ -> Rng.float rng 100.) in
  List.iter (fun v -> Pipeline_sim.Heap.push h ~priority:v v) values;
  let rec drain last acc =
    match Pipeline_sim.Heap.pop h with
    | None -> acc
    | Some (p, _) ->
      Alcotest.(check bool) "non-decreasing" true (p >= last);
      drain p (acc + 1)
  in
  Alcotest.(check int) "all popped" 500 (drain neg_infinity 0)

let test_heap_rejects_nan () =
  Alcotest.check_raises "nan" (Invalid_argument "Heap.push: nan priority")
    (fun () -> Pipeline_sim.Heap.push (Pipeline_sim.Heap.create ()) ~priority:Float.nan ())

let test_des_ordering () =
  let des = Pipeline_sim.Des.create () in
  let log = ref [] in
  Pipeline_sim.Des.schedule des ~delay:2. (fun d ->
      log := ("b", Pipeline_sim.Des.now d) :: !log);
  Pipeline_sim.Des.schedule des ~delay:1. (fun d ->
      log := ("a", Pipeline_sim.Des.now d) :: !log;
      (* handlers can schedule more events *)
      Pipeline_sim.Des.schedule d ~delay:5. (fun d ->
          log := ("c", Pipeline_sim.Des.now d) :: !log));
  Pipeline_sim.Des.run des;
  Alcotest.(check (list (pair string (float 1e-9))))
    "timeline" [ ("a", 1.); ("b", 2.); ("c", 6.) ] (List.rev !log)

let test_des_until () =
  let des = Pipeline_sim.Des.create () in
  let fired = ref 0 in
  Pipeline_sim.Des.schedule des ~delay:1. (fun _ -> incr fired);
  Pipeline_sim.Des.schedule des ~delay:10. (fun _ -> incr fired);
  Pipeline_sim.Des.run ~until:5. des;
  Alcotest.(check int) "only the early event" 1 !fired;
  Alcotest.(check int) "one pending" 1 (Pipeline_sim.Des.pending des)

let test_des_ties_fifo () =
  (* Events due at the same time fire in the order they were queued; a
     handler that schedules at the current time goes behind them. *)
  let des = Pipeline_sim.Des.create () in
  let log = ref [] in
  let note name _ = log := name :: !log in
  Pipeline_sim.Des.schedule des ~delay:1. (fun d ->
      note "a" d;
      Pipeline_sim.Des.schedule d ~delay:0. (note "e"));
  Pipeline_sim.Des.schedule des ~delay:1. (note "b");
  Pipeline_sim.Des.schedule des ~delay:1. (note "c");
  Pipeline_sim.Des.schedule_at des ~time:1. (note "d");
  Pipeline_sim.Des.run des;
  Alcotest.(check (list string)) "queue order" [ "a"; "b"; "c"; "d"; "e" ]
    (List.rev !log);
  Helpers.check_float "clock" 1. (Pipeline_sim.Des.now des)

let test_des_rejects_negative_delay () =
  let des = Pipeline_sim.Des.create () in
  Alcotest.check_raises "negative"
    (Invalid_argument "Des.schedule: delay must be finite and >= 0") (fun () ->
      Pipeline_sim.Des.schedule des ~delay:(-1.) (fun _ -> ()))

(* ------------------------------------------------------------------ *)
(* Workload_sim                                                        *)
(* ------------------------------------------------------------------ *)

module W = Pipeline_sim.Workload_sim

let prop_workload_sim_matches_runner =
  Helpers.qtest ~count:40 "deterministic saturated run = Runner = equations"
    gen_instance_mapping
    (fun (inst, mapping) ->
      let stats =
        W.run ~config:{ W.default_config with W.datasets = 150 } inst mapping
      in
      let analytic = Cost.period (Cost.get inst.Instance.app inst.Instance.platform) mapping in
      let analytic_latency =
        Cost.latency (Cost.get inst.Instance.app inst.Instance.platform) mapping
      in
      Helpers.feq ~eps:1e-6 stats.W.steady_period analytic
      && (* dataset 0 never waits: its latency is the analytic one, and it
            is the minimum over all data sets *)
      stats.W.latency_mean >= analytic_latency -. 1e-9)

let prop_noise_inflates_period =
  Helpers.qtest ~count:30 "noise never beats the analytic period (on average)"
    gen_instance_mapping
    (fun (inst, mapping) ->
      let config =
        { W.default_config with W.noise = W.Uniform_factor 0.3; datasets = 300 }
      in
      let stats = W.run ~config inst mapping in
      let analytic = Cost.period (Cost.get inst.Instance.app inst.Instance.platform) mapping in
      (* Mean-1 multiplicative noise + rendezvous coupling: the achieved
         period can only sit above the analytic one, minus sampling
         slack. *)
      stats.W.steady_period >= analytic *. 0.97)

let test_workload_sim_deterministic () =
  let inst = Helpers.small_instance () in
  let mapping = Mapping.of_cuts ~n:4 ~cuts:[ 2 ] ~procs:[ 1; 0 ] in
  let config =
    { W.default_config with W.noise = W.Uniform_factor 0.2; datasets = 100; seed = 5 }
  in
  let a = W.run ~config inst mapping and b = W.run ~config inst mapping in
  Helpers.check_float "same period" a.W.steady_period b.W.steady_period;
  Helpers.check_float "same latency" a.W.latency_mean b.W.latency_mean

let test_workload_sim_slow_arrivals () =
  (* Arrivals slower than the service rate: the pipeline is input-bound
     and the output rate matches the arrival period. *)
  let inst = Helpers.small_instance () in
  let mapping = Mapping.single ~n:4 ~proc:1 in
  (* service period 7; feed one data set every 20 time units *)
  let config =
    { W.default_config with W.arrival = W.Periodic 20.; datasets = 50 }
  in
  let stats = W.run ~config inst mapping in
  Alcotest.(check bool) "output paced by input" true
    (Float.abs (stats.W.steady_period -. 20.) < 0.5);
  (* No queueing: every data set sees the uncontended latency. *)
  Helpers.check_float "latency = analytic" 7. stats.W.latency_max

let test_workload_sim_poisson_reasonable () =
  let inst = Helpers.small_instance () in
  let mapping = Mapping.of_cuts ~n:4 ~cuts:[ 2 ] ~procs:[ 1; 0 ] in
  (* Service bottleneck 8; offered load rate 0.05 => period 20. *)
  let config =
    { W.default_config with W.arrival = W.Poisson 0.05; datasets = 200; seed = 9 }
  in
  let stats = W.run ~config inst mapping in
  Alcotest.(check bool) "period near 1/rate" true
    (stats.W.steady_period > 15. && stats.W.steady_period < 25.);
  Alcotest.(check bool) "sojourn bounded" true
    (Float.is_finite stats.W.sojourn_max)

let test_workload_sim_rejects_bad_config () =
  let inst = Helpers.small_instance () in
  let mapping = Mapping.single ~n:4 ~proc:0 in
  Alcotest.(check bool) "bad noise" true
    (try
       ignore
         (W.run
            ~config:{ W.default_config with W.noise = W.Uniform_factor 1.5 }
            inst mapping);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "bad rate" true
    (try
       ignore
         (W.run ~config:{ W.default_config with W.arrival = W.Periodic 0. } inst mapping);
       false
     with Invalid_argument _ -> true)


let prop_trace_zeros_is_saturated =
  Helpers.qtest ~count:40 "Trace of zeros = Saturated (bit-for-bit)"
    gen_instance_mapping (fun (inst, mapping) ->
      let datasets = 40 in
      let config arrival =
        {
          W.default_config with
          W.arrival;
          noise = W.Uniform_factor 0.25;
          datasets;
          seed = 11;
        }
      in
      let saturated = W.run ~config:(config W.Saturated) inst mapping in
      let traced =
        W.run ~config:(config (W.Trace (Array.make datasets 0.))) inst mapping
      in
      Stdlib.compare saturated traced = 0)

let test_workload_sim_trace_paces_input () =
  (* An explicit trace at one data set per 20 time units behaves as the
     periodic process: input-bound output, uncontended latency. *)
  let inst = Helpers.small_instance () in
  let mapping = Mapping.single ~n:4 ~proc:1 in
  let datasets = 50 in
  let trace = Array.init datasets (fun i -> 20. *. float_of_int i) in
  let config arrival = { W.default_config with W.arrival; datasets } in
  let traced = W.run ~config:(config (W.Trace trace)) inst mapping in
  let periodic = W.run ~config:(config (W.Periodic 20.)) inst mapping in
  Alcotest.(check bool) "same stats as Periodic" true
    (Stdlib.compare traced periodic = 0);
  Helpers.check_float "paced" 20. traced.W.steady_period

let test_workload_sim_trace_rejected () =
  let inst = Helpers.small_instance () in
  let mapping = Mapping.single ~n:4 ~proc:0 in
  let rejects name arrival datasets =
    Alcotest.(check bool) name true
      (try
         ignore
           (W.run ~config:{ W.default_config with W.arrival; datasets } inst mapping);
         false
       with Invalid_argument _ -> true)
  in
  rejects "length mismatch" (W.Trace [| 0.; 1. |]) 3;
  rejects "negative instant" (W.Trace [| -1.; 1. |]) 2;
  rejects "nan instant" (W.Trace [| 0.; nan |]) 2;
  rejects "infinite instant" (W.Trace [| 0.; infinity |]) 2;
  rejects "decreasing" (W.Trace [| 2.; 1. |]) 2;
  rejects "empty" (W.Trace [||]) 0

let test_workload_sim_slowdown () =
  (* Halving the only processor's speed from t=0 doubles the steady
     period; an event after the makespan changes nothing. *)
  let inst = Helpers.small_instance () in
  let mapping = Mapping.single ~n:4 ~proc:1 in
  let base = W.run ~config:{ W.default_config with W.datasets = 60 } inst mapping in
  let slowed =
    W.run
      ~config:
        {
          W.default_config with
          W.datasets = 60;
          slowdowns = [ { W.at = 0.; proc = 1; factor = 0.5 } ];
        }
      inst mapping
  in
  (* cycle = 1 + 20/s + 1: at s=4 -> 7; at s=2 -> 12. *)
  Helpers.check_float "baseline" 7. base.W.steady_period;
  Helpers.check_float "halved speed" 12. slowed.W.steady_period;
  let late =
    W.run
      ~config:
        {
          W.default_config with
          W.datasets = 60;
          slowdowns = [ { W.at = 1e9; proc = 1; factor = 0.5 } ];
        }
      inst mapping
  in
  Helpers.check_float "event after the run" 7. late.W.steady_period

let test_workload_sim_slowdown_composes () =
  let inst = Helpers.small_instance () in
  let mapping = Mapping.single ~n:4 ~proc:1 in
  let stats =
    W.run
      ~config:
        {
          W.default_config with
          W.datasets = 40;
          slowdowns =
            [
              { W.at = 0.; proc = 1; factor = 0.5 };
              { W.at = 0.; proc = 1; factor = 0.5 };
            ];
        }
      inst mapping
  in
  (* speed 4 -> 1: cycle = 1 + 20 + 1. *)
  Helpers.check_float "composed" 22. stats.W.steady_period

(* The crash-free kernel, pinned bit-for-bit: every statistic of a
   fixed grid (random instances x {saturated, periodic, Poisson, trace}
   x noise off/on x no slowdown/one slowdown) rendered as hex floats,
   latencies as a digest, and compared with test/golden-sim/workload.txt.
   On a mismatch the full rendering is written to workload.txt.actual in
   the test's working directory, ready to diff or copy over the golden. *)
let render_workload_grid () =
  let datasets = 40 in
  let trace = Array.init datasets (fun t -> (2.5 *. float_of_int t) +. float_of_int (t mod 3)) in
  let arrivals =
    [
      ("saturated", W.Saturated);
      ("periodic", W.Periodic 3.);
      ("poisson", W.Poisson 0.4);
      ("trace", W.Trace trace);
    ]
  in
  let noises = [ ("exact", W.No_noise); ("noisy", W.Uniform_factor 0.3) ] in
  let buf = Buffer.create 16384 in
  for seed = 0 to 7 do
    let inst = Helpers.random_instance ~n_max:8 ~p_max:5 seed in
    let mapping = random_mapping (Rng.create (seed + 77)) inst in
    let base = { W.default_config with W.datasets; seed = 1000 + seed } in
    let slowdowns =
      [
        ("steady", []);
        ("slowed", [ { W.at = 15.; proc = Mapping.proc mapping 0; factor = 0.5 } ]);
      ]
    in
    List.iter
      (fun (a, arrival) ->
        List.iter
          (fun (nz, noise) ->
            List.iter
              (fun (sl, slowdowns) ->
                let s =
                  W.run
                    ~config:{ base with W.arrival; noise; slowdowns }
                    inst mapping
                in
                let digest =
                  Digest.to_hex
                    (Digest.string
                       (String.concat "," (List.map (Printf.sprintf "%h") s.W.latencies)))
                in
                Printf.bprintf buf "%d %s %s %s: %d %h %h %h %h %h %h %h %s\n" seed a nz
                  sl s.W.completed s.W.makespan s.W.steady_period s.W.throughput
                  s.W.latency_mean s.W.latency_p95 s.W.latency_max s.W.sojourn_max digest)
              slowdowns)
          noises)
      arrivals
  done;
  Buffer.contents buf

let test_workload_sim_golden () =
  let actual = render_workload_grid () in
  let expected = In_channel.with_open_bin "golden-sim/workload.txt" In_channel.input_all in
  if actual <> expected then begin
    Out_channel.with_open_bin "workload.txt.actual" (fun oc ->
        Out_channel.output_string oc actual);
    Alcotest.failf "crash-free statistics moved; full rendering in %s"
      (Filename.concat (Sys.getcwd ()) "workload.txt.actual")
  end

let test_workload_sim_slowdown_rejected () =
  let inst = Helpers.small_instance () in
  let mapping = Mapping.single ~n:4 ~proc:0 in
  Alcotest.(check bool) "bad factor" true
    (try
       ignore
         (W.run
            ~config:
              {
                W.default_config with
                W.slowdowns = [ { W.at = 0.; proc = 0; factor = 0. } ];
              }
            inst mapping);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Des cancellable events                                              *)
(* ------------------------------------------------------------------ *)

let test_des_cancel () =
  let des = Des.create () in
  let fired = ref [] in
  let h1 = Des.schedule_cancellable des ~delay:1. (fun _ -> fired := 1 :: !fired) in
  let h2 = Des.schedule_cancellable des ~delay:2. (fun _ -> fired := 2 :: !fired) in
  Alcotest.(check bool) "live before run" false (Des.cancelled h1);
  Des.cancel des h1;
  Alcotest.(check bool) "cancelled" true (Des.cancelled h1);
  Des.run des;
  Alcotest.(check (list int)) "only live event fired" [ 2 ] !fired;
  Alcotest.(check bool) "h2 still live" false (Des.cancelled h2);
  (* Cancelling after the event fired is a harmless no-op. *)
  Des.cancel des h2;
  Alcotest.(check bool) "h2 cancelled late" true (Des.cancelled h2)

let test_des_cancel_keeps_clock () =
  (* A cancelled event still occupies its slot: the clock advances
     through its time, but nothing runs. *)
  let des = Des.create () in
  let h = Des.schedule_cancellable des ~delay:5. (fun _ -> Alcotest.fail "fired") in
  Des.cancel des h;
  Des.run des;
  Helpers.check_float "clock advanced" 5. (Des.now des)

(* ------------------------------------------------------------------ *)
(* Crashes                                                             *)
(* ------------------------------------------------------------------ *)

(* small_instance + single mapping on proc 1 (speed 4):
   in 1 + compute 5 + out 1, so data set t computes over [7t+1, 7t+6]
   under saturated arrivals. *)
let single_on_p1 () =
  (Helpers.small_instance (), Mapping.single ~n:4 ~proc:1)

let fault_config ?(datasets = 5) ?(crashes = []) ?(retry = W.no_retry) () =
  { W.default_config with W.datasets; crashes; retry }

(* Shared by the crash-free and harmless-crash properties: noisy
   service times and Poisson arrivals, so every data set exercises the
   pipeline's queues. *)
let noisy_config =
  {
    W.default_config with
    W.datasets = 30;
    noise = W.Uniform_factor 0.3;
    arrival = W.Poisson 0.05;
    seed = 42;
  }

(* Without crashes the retry policy is inert: any budget and backoff
   give the statistics of the plain workload run, bit for bit, with
   every offered data set completed and no fault counted. *)
let prop_fault_sim_no_crash_identical =
  Helpers.qtest ~count:60 "no crashes = workload sim (bit-for-bit)"
    gen_instance_mapping (fun (inst, mapping) ->
      let plain = W.run ~config:noisy_config inst mapping in
      let retrying =
        W.run
          ~config:{ noisy_config with W.retry = { W.max_retries = 3; backoff = 2. } }
          inst mapping
      in
      Stdlib.compare plain retrying = 0
      && plain.W.completed = plain.W.offered
      && plain.W.killed = 0 && plain.W.dropped = 0 && plain.W.retries = 0)

(* Crashes that cannot reach the pipeline change nothing: a permanent
   or a recovering crash on every processor the mapping leaves idle, and
   a permanent crash of every enrolled processor after the crash-free
   makespan. *)
let prop_harmless_crashes =
  Helpers.qtest ~count:60 "harmless crashes change no bit"
    gen_instance_mapping (fun (inst, mapping) ->
      let plain = W.run ~config:noisy_config inst mapping in
      let harmless crashes =
        let s = W.run ~config:{ noisy_config with W.crashes } inst mapping in
        Stdlib.compare plain s = 0 && s.W.killed = 0 && s.W.dropped = 0 && s.W.retries = 0
      in
      let enrolled, idle =
        List.partition (Mapping.uses mapping)
          (List.init (Platform.p inst.Instance.platform) Fun.id)
      in
      List.for_all
        (fun u ->
          harmless [ { W.at = 3.; proc = u; recover_at = None } ]
          && harmless [ { W.at = 3.; proc = u; recover_at = Some 8. } ])
        idle
      && harmless
           (List.map
              (fun u -> { W.at = plain.W.makespan +. 1.; proc = u; recover_at = None })
              enrolled))

let test_fault_sim_deterministic () =
  let inst, mapping = single_on_p1 () in
  let config =
    {
      (fault_config ~datasets:40
         ~crashes:[ { W.at = 10.; proc = 1; recover_at = Some 20. } ]
         ~retry:{ W.max_retries = 2; backoff = 1. } ())
      with
      W.noise = W.Uniform_factor 0.2;
      seed = 7;
    }
  in
  let a = W.run ~config inst mapping in
  let b = W.run ~config inst mapping in
  Alcotest.(check bool) "same seed, same stats" true (Stdlib.compare a b = 0)

let test_fault_sim_permanent_crash () =
  (* Crash at t=10 kills data set 1 (computing over [8,13]); with no
     recovery the retry never happens, the data set is dropped, and data
     set 2 parks forever on the dead processor. *)
  let inst, mapping = single_on_p1 () in
  let config =
    fault_config ~crashes:[ { W.at = 10.; proc = 1; recover_at = None } ]
      ~retry:{ W.max_retries = 3; backoff = 1. } ()
  in
  let stats = W.run ~config inst mapping in
  Alcotest.(check int) "completed" 1 stats.W.completed;
  Alcotest.(check int) "killed" 1 stats.W.killed;
  Alcotest.(check int) "dropped" 1 stats.W.dropped;
  Alcotest.(check int) "retries" 0 stats.W.retries;
  Helpers.check_float "survival" 0.2 (W.survival stats);
  Helpers.check_float "makespan is ds0's completion" 7. stats.W.makespan

let test_fault_sim_retry_after_recovery () =
  (* Crash at 10 kills data set 1; recovery at 20 + backoff 2 replays it
     over [22,27], completion at 28; the pipeline then drains normally:
     completions 7, 28, 35, 42, 49. *)
  let inst, mapping = single_on_p1 () in
  let config =
    fault_config ~crashes:[ { W.at = 10.; proc = 1; recover_at = Some 20. } ]
      ~retry:{ W.max_retries = 1; backoff = 2. } ()
  in
  let stats = W.run ~config inst mapping in
  Alcotest.(check int) "completed" 5 stats.W.completed;
  Alcotest.(check int) "killed" 1 stats.W.killed;
  Alcotest.(check int) "dropped" 0 stats.W.dropped;
  Alcotest.(check int) "retries" 1 stats.W.retries;
  Helpers.check_float "survival" 1. (W.survival stats);
  Helpers.check_float "makespan" 49. stats.W.makespan

let test_fault_sim_recovery_without_retry () =
  (* Same crash window but no retry budget: data set 1 is dropped at the
     crash; data set 2's compute parks until the recovery at 20, then
     runs over [20,25]: completions 7, 26, 33, 40. *)
  let inst, mapping = single_on_p1 () in
  let config =
    fault_config ~crashes:[ { W.at = 10.; proc = 1; recover_at = Some 20. } ] ()
  in
  let stats = W.run ~config inst mapping in
  Alcotest.(check int) "completed" 4 stats.W.completed;
  Alcotest.(check int) "killed" 1 stats.W.killed;
  Alcotest.(check int) "dropped" 1 stats.W.dropped;
  Helpers.check_float "makespan" 40. stats.W.makespan

let test_fault_sim_drop_propagates () =
  (* Two intervals: stages 1-2 on proc 1, stages 3-4 on proc 0. A
     permanent crash on proc 1 at t=9 kills data set 1's first-interval
     compute ([8,11]); the drop propagates so the downstream interval
     skips data set 1 instead of waiting forever for it. *)
  let inst = Helpers.small_instance () in
  let mapping = Mapping.of_cuts ~n:4 ~cuts:[ 2 ] ~procs:[ 1; 0 ] in
  let config =
    fault_config ~crashes:[ { W.at = 9.; proc = 1; recover_at = None } ] ()
  in
  let stats = W.run ~config inst mapping in
  Alcotest.(check int) "completed" 1 stats.W.completed;
  Alcotest.(check int) "killed" 1 stats.W.killed;
  Alcotest.(check int) "dropped" 1 stats.W.dropped;
  Helpers.check_float "ds0 completion" 12. stats.W.makespan

let test_fault_sim_unused_proc_crash_harmless () =
  (* Crashing a processor the mapping does not use changes nothing. *)
  let inst = Helpers.small_instance () in
  let mapping = Mapping.of_cuts ~n:4 ~cuts:[ 2 ] ~procs:[ 1; 0 ] in
  let base = { W.default_config with W.datasets = 25 } in
  let plain = W.run ~config:base inst mapping in
  let stats =
    W.run
      ~config:{ base with W.crashes = [ { W.at = 3.; proc = 2; recover_at = Some 8. } ] }
      inst mapping
  in
  Alcotest.(check bool) "identical stats" true (Stdlib.compare plain stats = 0);
  Alcotest.(check int) "nothing killed" 0 stats.W.killed

let test_fault_sim_rejects_bad_config () =
  let inst, mapping = single_on_p1 () in
  let rejects name config =
    Alcotest.(check bool) name true
      (try
         ignore (W.run ~config inst mapping);
         false
       with Invalid_argument _ -> true)
  in
  rejects "negative crash time"
    (fault_config ~crashes:[ { W.at = -1.; proc = 1; recover_at = None } ] ());
  rejects "nan crash time"
    (fault_config ~crashes:[ { W.at = nan; proc = 1; recover_at = None } ] ());
  rejects "proc out of range"
    (fault_config ~crashes:[ { W.at = 1.; proc = 3; recover_at = None } ] ());
  rejects "negative proc"
    (fault_config ~crashes:[ { W.at = 1.; proc = -1; recover_at = None } ] ());
  rejects "recovery before crash"
    (fault_config ~crashes:[ { W.at = 5.; proc = 1; recover_at = Some 5. } ] ());
  rejects "infinite recovery"
    (fault_config
       ~crashes:[ { W.at = 5.; proc = 1; recover_at = Some infinity } ]
       ());
  rejects "overlapping windows"
    (fault_config
       ~crashes:
         [
           { W.at = 5.; proc = 1; recover_at = Some 15. };
           { W.at = 10.; proc = 1; recover_at = Some 20. };
         ]
       ());
  rejects "permanent then crash again"
    (fault_config
       ~crashes:
         [
           { W.at = 5.; proc = 1; recover_at = None };
           { W.at = 10.; proc = 1; recover_at = None };
         ]
       ());
  rejects "negative retries"
    (fault_config ~retry:{ W.max_retries = -1; backoff = 0. } ());
  rejects "negative backoff"
    (fault_config ~retry:{ W.max_retries = 1; backoff = -1. } ());
  rejects "nan backoff"
    (fault_config ~retry:{ W.max_retries = 1; backoff = nan } ())

let () =
  Alcotest.run "sim"
    [
      ( "trace",
        [
          Alcotest.test_case "shape" `Quick test_trace_shape;
          Alcotest.test_case "sorted" `Quick test_trace_ops_sorted;
          Alcotest.test_case "first latency" `Quick test_trace_first_dataset_latency;
          Alcotest.test_case "steady period" `Quick test_trace_steady_period;
          Alcotest.test_case "monotone completions" `Quick
            test_trace_monotone_completions;
          Alcotest.test_case "utilisation" `Quick test_trace_utilisation_bounds;
          Alcotest.test_case "gantt" `Quick test_trace_gantt;
          Alcotest.test_case "bad ops" `Quick test_trace_rejects_bad_ops;
          Alcotest.test_case "op pp/duration" `Quick test_op_pp_duration;
          Alcotest.test_case "csv export" `Quick test_trace_to_csv;
          Alcotest.test_case "chrome json export" `Quick test_trace_to_chrome_json;
        ] );
      ( "one-port",
        [
          Alcotest.test_case "processor serialised" `Quick
            test_no_overlap_serialises_processor;
          Alcotest.test_case "rendezvous transfers" `Quick test_transfer_is_rendezvous;
          prop_validate_agrees;
          prop_validate_agrees_het;
          prop_max_latency_at_least_analytic;
        ] );
      ( "kernel",
        [
          Alcotest.test_case "heap orders" `Quick test_heap_orders;
          Alcotest.test_case "heap fifo ties" `Quick test_heap_fifo_ties;
          Alcotest.test_case "heap random" `Quick test_heap_random_sorted;
          Alcotest.test_case "heap nan" `Quick test_heap_rejects_nan;
          Alcotest.test_case "des ordering" `Quick test_des_ordering;
          Alcotest.test_case "des until" `Quick test_des_until;
          Alcotest.test_case "des ties fifo" `Quick test_des_ties_fifo;
          Alcotest.test_case "des bad delay" `Quick test_des_rejects_negative_delay;
          Alcotest.test_case "cancel" `Quick test_des_cancel;
          Alcotest.test_case "cancel keeps clock" `Quick test_des_cancel_keeps_clock;
        ] );
      ( "workload-sim",
        [
          prop_workload_sim_matches_runner;
          prop_noise_inflates_period;
          Alcotest.test_case "deterministic" `Quick test_workload_sim_deterministic;
          Alcotest.test_case "slow arrivals" `Quick test_workload_sim_slow_arrivals;
          Alcotest.test_case "poisson" `Quick test_workload_sim_poisson_reasonable;
          Alcotest.test_case "bad config" `Quick test_workload_sim_rejects_bad_config;
          prop_trace_zeros_is_saturated;
          Alcotest.test_case "trace paces input" `Quick
            test_workload_sim_trace_paces_input;
          Alcotest.test_case "trace rejected" `Quick test_workload_sim_trace_rejected;
          Alcotest.test_case "slowdown" `Quick test_workload_sim_slowdown;
          Alcotest.test_case "slowdown composes" `Quick
            test_workload_sim_slowdown_composes;
          Alcotest.test_case "slowdown rejected" `Quick
            test_workload_sim_slowdown_rejected;
          Alcotest.test_case "golden crash-free grid" `Quick test_workload_sim_golden;
        ] );
      ( "fault-sim",
        [
          prop_fault_sim_no_crash_identical;
          prop_harmless_crashes;
          Alcotest.test_case "deterministic" `Quick test_fault_sim_deterministic;
          Alcotest.test_case "permanent crash" `Quick test_fault_sim_permanent_crash;
          Alcotest.test_case "retry after recovery" `Quick
            test_fault_sim_retry_after_recovery;
          Alcotest.test_case "recovery without retry" `Quick
            test_fault_sim_recovery_without_retry;
          Alcotest.test_case "drop propagates" `Quick test_fault_sim_drop_propagates;
          Alcotest.test_case "unused proc crash" `Quick
            test_fault_sim_unused_proc_crash_harmless;
          Alcotest.test_case "bad fault config" `Quick
            test_fault_sim_rejects_bad_config;
        ] );
      ( "overlap",
        [
          prop_overlap_not_slower;
          Alcotest.test_case "max component" `Quick test_overlap_reaches_max_component;
          Alcotest.test_case "bad input" `Quick test_runner_rejects_bad_input;
          Alcotest.test_case "validate report" `Quick test_validate_report_fields;
        ] );
    ]
