open Pipeline_model
open Pipeline_stream
module Rng = Pipeline_util.Rng
module W = Pipeline_sim.Workload_sim

let gen_seed = QCheck2.Gen.int_range 0 100_000

let rejects name f =
  Alcotest.(check bool) name true
    (try
       ignore (f ());
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Arrival traces                                                      *)
(* ------------------------------------------------------------------ *)

let shapes =
  [
    ("bursty", Arrival_trace.Bursty { rate = 0.2; burst = 5; spread = 0.3 });
    ("diurnal", Arrival_trace.Diurnal { period = 40.; peak = 1.; trough = 0.2 });
    ("heavy-tailed", Arrival_trace.Heavy_tailed { rate = 0.5; alpha = 1.7 });
  ]

let valid_trace a =
  Array.length a > 0
  && Array.for_all (fun t -> Float.is_finite t && t >= 0.) a
  && fst
       (Array.fold_left
          (fun (ok, prev) t -> (ok && t >= prev, t))
          (true, neg_infinity) a)

let prop_generators_valid =
  Helpers.qtest ~count:60 "generated traces are sorted, finite, >= 0"
    QCheck2.Gen.(pair gen_seed (int_range 1 80))
    (fun (seed, count) ->
      List.for_all
        (fun (_, spec) ->
          let a = Arrival_trace.generate (Rng.create seed) spec ~count in
          Array.length a = count && valid_trace a)
        shapes)

let test_generators_deterministic () =
  List.iter
    (fun (name, spec) ->
      let a = Arrival_trace.generate (Rng.create 11) spec ~count:50 in
      let b = Arrival_trace.generate (Rng.create 11) spec ~count:50 in
      Alcotest.(check bool) (name ^ " reproducible") true (a = b))
    shapes

let test_generators_reject_bad_spec () =
  let gen spec = Arrival_trace.generate (Rng.create 0) spec ~count:10 in
  rejects "count < 1" (fun () ->
      Arrival_trace.generate (Rng.create 0)
        (Bursty { rate = 1.; burst = 1; spread = 0. })
        ~count:0);
  rejects "bursty rate" (fun () ->
      gen (Bursty { rate = 0.; burst = 1; spread = 0. }));
  rejects "bursty burst" (fun () ->
      gen (Bursty { rate = 1.; burst = 0; spread = 0. }));
  rejects "bursty spread" (fun () ->
      gen (Bursty { rate = 1.; burst = 1; spread = -1. }));
  rejects "diurnal period" (fun () ->
      gen (Diurnal { period = 0.; peak = 1.; trough = 0.5 }));
  rejects "diurnal trough" (fun () ->
      gen (Diurnal { period = 1.; peak = 1.; trough = 0. }));
  rejects "diurnal peak < trough" (fun () ->
      gen (Diurnal { period = 1.; peak = 0.2; trough = 0.5 }));
  rejects "pareto alpha" (fun () -> gen (Heavy_tailed { rate = 1.; alpha = 1. }))

let prop_trace_csv_round_trip =
  Helpers.qtest ~count:40 "arrival CSV round-trips exactly" gen_seed
    (fun seed ->
      let a =
        Arrival_trace.generate (Rng.create seed)
          (Heavy_tailed { rate = 0.5; alpha = 2.5 })
          ~count:30
      in
      match Arrival_trace.of_csv_string (Arrival_trace.to_csv a) with
      | Ok b -> a = b
      | Error _ -> false)

let test_trace_csv_garbage () =
  let err s =
    match Arrival_trace.of_csv_string s with
    | Error msg -> msg
    | Ok _ -> Alcotest.fail ("accepted: " ^ String.escaped s)
  in
  let check_prefix name s prefix =
    let msg = err s in
    Alcotest.(check bool)
      (name ^ ": " ^ msg)
      true
      (String.length msg >= String.length prefix
      && String.sub msg 0 (String.length prefix) = prefix)
  in
  check_prefix "not a number" "arrival\n1.0\nx\n" "line 3";
  check_prefix "negative" "-1.0\n" "line 1";
  check_prefix "nan" "nan\n" "line 1";
  check_prefix "decreasing" "2.0\n1.0\n" "line 2";
  Alcotest.(check bool) "empty rejected" true
    (Result.is_error (Arrival_trace.of_csv_string "arrival\n"))

(* ------------------------------------------------------------------ *)
(* Churn traces                                                        *)
(* ------------------------------------------------------------------ *)

let ev at proc kind = { Churn.at; proc; kind }

let test_churn_validate_rejects () =
  let v events = Churn.validate ~p:3 events in
  rejects "proc out of range" (fun () -> v [ ev 1. 3 Churn.Crash ]);
  rejects "negative time" (fun () -> v [ ev (-1.) 0 Churn.Crash ]);
  rejects "nan time" (fun () -> v [ ev nan 0 Churn.Crash ]);
  rejects "bad factor" (fun () -> v [ ev 1. 0 (Churn.Speed 0.) ]);
  rejects "crash while down" (fun () ->
      v [ ev 1. 0 Churn.Crash; ev 2. 0 Churn.Crash ]);
  rejects "recover while up" (fun () -> v [ ev 1. 0 Churn.Recover ]);
  rejects "join not first" (fun () ->
      v [ ev 1. 0 Churn.Crash; ev 2. 0 Churn.Join ]);
  rejects "join at zero" (fun () -> v [ ev 0. 0 Churn.Join ]);
  rejects "simultaneous events" (fun () ->
      v [ ev 1. 0 Churn.Crash; ev 1. 0 Churn.Recover ]);
  (* The well-formed counterparts pass. *)
  v [ ev 1. 0 Churn.Crash; ev 2. 0 Churn.Recover; ev 2. 1 (Churn.Speed 0.5) ];
  v [ ev 1. 2 Churn.Join; ev 3. 2 Churn.Crash ];
  v []

let test_churn_csv_round_trip () =
  let events =
    [
      ev 1. 0 Churn.Crash;
      ev 2.5 1 (Churn.Speed 0.75);
      ev 3. 0 Churn.Recover;
      ev 4. 2 Churn.Join;
    ]
  in
  match Churn.of_csv_string (Churn.to_csv events) with
  | Ok back -> Alcotest.(check bool) "round-trip" true (back = events)
  | Error msg -> Alcotest.fail msg

let test_churn_csv_garbage () =
  let line s =
    match Churn.of_csv_string s with
    | Error msg -> msg
    | Ok _ -> Alcotest.fail ("accepted: " ^ String.escaped s)
  in
  let has_line n s =
    let msg = line s in
    let prefix = Printf.sprintf "line %d" n in
    Alcotest.(check bool)
      (s ^ " -> " ^ msg)
      true
      (String.sub msg 0 (String.length prefix) = prefix)
  in
  has_line 1 "1.0,0\n";
  has_line 2 "at,proc,event\n1.0,0,explode\n";
  has_line 1 "x,0,crash\n";
  has_line 1 "1.0,x,crash\n";
  has_line 1 "1.0,0,speed\n";
  has_line 1 "1.0,0,speed,x\n";
  has_line 1 "1.0,0,crash,0.5\n";
  match Churn.of_csv_string "" with
  | Ok [] -> ()
  | Ok _ -> Alcotest.fail "empty file produced events"
  | Error msg -> Alcotest.fail ("empty file rejected: " ^ msg)

let test_churn_crash_compilation () =
  let windows =
    Churn.crashes ~p:3
      [
        ev 5. 0 Churn.Crash;
        ev 9. 0 Churn.Recover;
        ev 2. 1 Churn.Join;
        ev 4. 2 Churn.Crash;
      ]
  in
  let sorted =
    List.sort (fun (a : W.crash) b -> compare (a.proc, a.at) (b.proc, b.at)) windows
  in
  Alcotest.(check int) "three windows" 3 (List.length sorted);
  (match sorted with
  | [ w0; w1; w2 ] ->
    Helpers.check_float "crash at" 5. w0.W.at;
    Alcotest.(check (option (float 1e-9))) "recover" (Some 9.) w0.W.recover_at;
    (* Join at 2 = down from the start until 2. *)
    Helpers.check_float "join from zero" 0. w1.W.at;
    Alcotest.(check (option (float 1e-9))) "join recover" (Some 2.) w1.W.recover_at;
    (* Unrecovered crash is permanent. *)
    Helpers.check_float "permanent at" 4. w2.W.at;
    Alcotest.(check (option (float 1e-9))) "permanent" None w2.W.recover_at
  | _ -> Alcotest.fail "wrong shape");
  Alcotest.(check int) "empty trace, no windows" 0
    (List.length (Churn.crashes ~p:3 []))

let test_churn_state_fold () =
  let events =
    [
      ev 1. 0 Churn.Crash;
      ev 2. 1 (Churn.Speed 0.5);
      ev 3. 1 (Churn.Speed 0.5);
      ev 4. 2 Churn.Join;
    ]
  in
  Churn.validate ~p:3 events;
  let final =
    List.fold_left Churn.apply (Churn.initial ~p:3 events) (Churn.sorted events)
  in
  Alcotest.(check bool) "proc 0 dead" false (Churn.alive final 0);
  Alcotest.(check bool) "proc 1 alive" true (Churn.alive final 1);
  Alcotest.(check bool) "proc 2 joined" true (Churn.alive final 2);
  Helpers.check_float "factors compose" 0.25 (Churn.factor final 1);
  Alcotest.(check (array int)) "survivors" [| 1; 2 |] (Churn.survivors final);
  (* Join processors start absent. *)
  let st0 = Churn.initial ~p:3 events in
  Alcotest.(check bool) "joiner absent at 0" false (Churn.alive st0 2);
  Alcotest.(check bool) "fingerprints differ" true
    (Churn.fingerprint st0 <> Churn.fingerprint final)

(* ------------------------------------------------------------------ *)
(* Resolver                                                            *)
(* ------------------------------------------------------------------ *)

let h1 () =
  match Pipeline_registry.find "h1-sp-mono-p" with
  | Some h -> h
  | None -> Alcotest.fail "H1 missing"

let small_mapped () =
  let inst = Helpers.small_instance () in
  let threshold = Instance.single_proc_period inst in
  match (h1 ()).Pipeline_registry.solve inst ~threshold with
  | Some o -> (
    match Deal_mapping.to_mapping o.Pipeline_registry.mapping with
    | Some mapping -> (inst, mapping, threshold)
    | None -> Alcotest.fail "H1 returned a replicated mapping")
  | None -> Alcotest.fail "H1 infeasible"

let test_resolver_keeps_healthy () =
  let inst, mapping, threshold = small_mapped () in
  let cache = Resolver.cache inst in
  let state = Churn.initial ~p:3 [] in
  match Resolver.resolve ~strategy:`Warm cache state ~before:mapping ~threshold with
  | None -> Alcotest.fail "survivors exist"
  | Some plan ->
    Alcotest.(check bool) "kept" true (plan.Resolver.mode = Resolver.Kept);
    Alcotest.(check bool) "same mapping" true
      (Mapping.equal plan.Resolver.mapping mapping);
    Alcotest.(check int) "no stages moved" 0 plan.Resolver.migrated_stages;
    Helpers.check_float "no volume" 0. plan.Resolver.migration_volume;
    Alcotest.(check bool) "met" true plan.Resolver.met_threshold

let test_resolver_none_when_dark () =
  let inst, mapping, threshold = small_mapped () in
  let cache = Resolver.cache inst in
  let dark =
    List.fold_left Churn.apply
      (Churn.initial ~p:3 [])
      [ ev 1. 0 Churn.Crash; ev 1. 1 Churn.Crash; ev 1. 2 Churn.Crash ]
  in
  Alcotest.(check bool) "no plan" true
    (Resolver.resolve ~strategy:`Warm cache dark ~before:mapping ~threshold = None);
  Alcotest.(check bool) "evaluate none" true
    (Resolver.evaluate cache dark mapping = None)

let test_resolver_avoids_dead () =
  let inst, mapping, threshold = small_mapped () in
  let cache = Resolver.cache inst in
  let victim = (Mapping.procs mapping).(0) in
  let state = Churn.apply (Churn.initial ~p:3 []) (ev 1. victim Churn.Crash) in
  match Resolver.resolve ~strategy:`Warm cache state ~before:mapping ~threshold with
  | None -> Alcotest.fail "survivors exist"
  | Some plan ->
    Alcotest.(check bool) "dead processor shunned" false
      (Mapping.uses plan.Resolver.mapping victim);
    Alcotest.(check bool) "some migration" true (plan.Resolver.migrated_stages > 0);
    Alcotest.(check bool) "not kept" true (plan.Resolver.mode <> Resolver.Kept)

let test_resolver_fallback_on_tight_threshold () =
  let inst, mapping, _ = small_mapped () in
  let cache = Resolver.cache inst in
  let state = Churn.initial ~p:3 [] in
  (* No mapping reaches a period of 1e-6: candidate pruning or the
     heuristic itself must degrade to the fastest survivor. *)
  match
    Resolver.resolve ~strategy:`Warm cache state ~before:mapping ~threshold:1e-6
  with
  | None -> Alcotest.fail "survivors exist"
  | Some plan ->
    Alcotest.(check bool) "fallback" true (plan.Resolver.mode = Resolver.Fallback);
    Alcotest.(check bool) "honest" false plan.Resolver.met_threshold;
    Alcotest.(check int) "one interval" 1 (Mapping.m plan.Resolver.mapping);
    (* Fastest processor is 1 (speed 4). *)
    Alcotest.(check int) "fastest survivor" 1 (Mapping.proc plan.Resolver.mapping 0)

let test_resolver_rejects_bad_input () =
  let inst, mapping, _ = small_mapped () in
  let cache = Resolver.cache inst in
  let state = Churn.initial ~p:3 [] in
  rejects "bad threshold" (fun () ->
      Resolver.resolve ~strategy:`Warm cache state ~before:mapping ~threshold:0.);
  rejects "foreign mapping" (fun () ->
      Resolver.resolve ~strategy:`Warm cache state
        ~before:(Mapping.single ~n:7 ~proc:0) ~threshold:10.);
  rejects "latency-family heuristic" (fun () ->
      match Pipeline_registry.find "h5-sp-mono-l" with
      | None -> invalid_arg "registry row moved: update this test"
      | Some h ->
        Resolver.resolve ~heuristic:h ~strategy:`Warm cache state ~before:mapping
          ~threshold:10.)

let gen_churned_case =
  QCheck2.Gen.map
    (fun seed ->
      let inst = Helpers.random_instance ~n_max:6 ~p_max:4 seed in
      let rng = Rng.create (seed + 57) in
      let p = Platform.p inst.Instance.platform in
      (* Kill a strict subset, slow another processor. *)
      let order = Rng.permutation rng p in
      let kills = Rng.int rng p in
      let events =
        List.concat
          (List.init p (fun i ->
               if i < kills then [ ev 1. order.(i) Churn.Crash ]
               else if i = kills && kills < p then
                 [ ev 1. order.(i) (Churn.Speed (0.25 +. (0.5 *. Rng.float rng 1.))) ]
               else []))
      in
      let state =
        List.fold_left Churn.apply (Churn.initial ~p []) (Churn.sorted events)
      in
      let threshold =
        Instance.single_proc_period inst
        *. (0.4 +. (float_of_int (Rng.int_in rng 0 14) /. 10.))
      in
      (inst, state, threshold))
    gen_seed

let prop_warm_cold_agree =
  Helpers.qtest ~count:120 "warm and cold agree on feasibility and honesty"
    gen_churned_case (fun (inst, state, threshold) ->
      let cache = Resolver.cache inst in
      let before = Instance.single_proc_mapping inst in
      let warm = Resolver.resolve ~strategy:`Warm cache state ~before ~threshold in
      let cold = Resolver.resolve ~strategy:`Cold cache state ~before ~threshold in
      match (warm, cold) with
      | None, None -> Array.length (Churn.survivors state) = 0
      | Some w, Some c ->
        (* Same feasibility verdict; both plans live on survivors only;
           both are honest about their claimed period. *)
        w.Resolver.met_threshold = c.Resolver.met_threshold
        && List.for_all
             (fun (plan : Resolver.plan) ->
               Array.for_all (fun u -> Churn.alive state u)
                 (Mapping.procs plan.Resolver.mapping)
               && (match Resolver.evaluate cache state plan.Resolver.mapping with
                  | Some s ->
                    Helpers.feq s.Cost.period plan.Resolver.period
                    && Helpers.feq s.Cost.latency plan.Resolver.latency
                  | None -> false)
               && plan.Resolver.met_threshold
                  = Pipeline_util.Tol.meets plan.Resolver.period threshold)
             [ w; c ]
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Controller                                                          *)
(* ------------------------------------------------------------------ *)

let prop_hysteresis_soundness =
  Helpers.qtest ~count:120
    "never migrate while the incumbent meets the hysteresis band"
    gen_churned_case (fun (inst, state, threshold) ->
      let initial = Instance.single_proc_mapping inst in
      let ctl = Controller.create inst ~initial ~threshold in
      let cfg = Controller.config ctl in
      let live = Controller.period ctl state in
      let in_band =
        Pipeline_util.Tol.meets live (cfg.Controller.hysteresis *. threshold)
      in
      let r = Controller.on_event ctl state ~at:1. in
      if in_band then
        (* Hysteresis soundness: a tolerable incumbent is left alone. *)
        r.Controller.action = Controller.Kept
        && Mapping.equal r.Controller.mapping initial
        && r.Controller.migrated_stages = 0
        && r.Controller.migration_volume = 0.
      else
        (* Out of band the controller must do *something* — and never
           return a mapping enrolling a dead processor while survivors
           exist. *)
        r.Controller.action <> Controller.Kept
        && (r.Controller.action = Controller.Stalled
            || Array.for_all (fun u -> Churn.alive state u)
                 (Mapping.procs r.Controller.mapping)))

let test_controller_budget_defers () =
  let inst, mapping, threshold = small_mapped () in
  let config =
    {
      (Controller.default ~threshold) with
      Controller.migration_budget = 0.;
      hysteresis = 1.;
    }
  in
  let ctl = Controller.create ~config inst ~initial:mapping ~threshold in
  (* Slow the bottleneck so the incumbent leaves the band: a voluntary
     migration, which the zero budget must block. *)
  let victim = (Mapping.procs mapping).(0) in
  let state =
    Churn.apply (Churn.initial ~p:3 []) (ev 1. victim (Churn.Speed 0.05))
  in
  let r = Controller.on_event ctl state ~at:1. in
  Alcotest.(check bool) "deferred" true (r.Controller.action = Controller.Deferred);
  Alcotest.(check bool) "mapping untouched" true
    (Mapping.equal (Controller.mapping ctl) mapping);
  (* A forced migration (the processor dies outright) goes through even
     with an empty budget. *)
  let state = Churn.apply state (ev 2. victim Churn.Crash) in
  let r = Controller.on_event ctl state ~at:2. in
  Alcotest.(check bool) "forced through" true
    (r.Controller.action <> Controller.Deferred
    && not (Mapping.uses r.Controller.mapping victim))

let test_controller_retry_backoff () =
  let inst, mapping, threshold = small_mapped () in
  let config =
    {
      (Controller.default ~threshold) with
      Controller.max_retries = 2;
      backoff = 5.;
    }
  in
  let ctl = Controller.create ~config inst ~initial:mapping ~threshold in
  (* Kill everything but the slowest processor: only a fallback exists,
     so every reaction is degraded and schedules a retry until the
     budget runs out. *)
  let state =
    List.fold_left Churn.apply
      (Churn.initial ~p:3 [])
      [ ev 1. 0 Churn.Crash; ev 1. 1 Churn.Crash ]
  in
  let r1 = Controller.on_event ctl state ~at:1. in
  Alcotest.(check bool) "degraded" true (r1.Controller.action = Controller.Degraded);
  Alcotest.(check (option (float 1e-9))) "first retry" (Some 6.) r1.Controller.retry_at;
  let r2 = Controller.on_event ctl state ~at:6. in
  Alcotest.(check (option (float 1e-9))) "second retry" (Some 11.) r2.Controller.retry_at;
  let r3 = Controller.on_event ctl state ~at:11. in
  Alcotest.(check (option (float 1e-9))) "budget exhausted" None r3.Controller.retry_at;
  (* Recovery re-arms: a threshold-meeting resolve resets the budget. *)
  let healed =
    List.fold_left Churn.apply state [ ev 20. 0 Churn.Recover; ev 20. 1 Churn.Recover ]
  in
  let r4 = Controller.on_event ctl healed ~at:20. in
  Alcotest.(check bool) "healed meets threshold" true r4.Controller.met_threshold;
  let dark =
    List.fold_left Churn.apply healed
      [ ev 30. 0 Churn.Crash; ev 30. 1 Churn.Crash; ev 30. 2 Churn.Crash ]
  in
  let r5 = Controller.on_event ctl dark ~at:30. in
  Alcotest.(check bool) "stalled" true (r5.Controller.action = Controller.Stalled);
  Alcotest.(check bool) "stall retries rearmed" true (r5.Controller.retry_at <> None);
  Alcotest.(check bool) "stalled period" true (r5.Controller.period = infinity)

let test_controller_rejects_bad_config () =
  let inst, mapping, threshold = small_mapped () in
  let base = Controller.default ~threshold in
  let mk config = Controller.create ~config inst ~initial:mapping ~threshold in
  rejects "hysteresis < 1" (fun () ->
      mk { base with Controller.hysteresis = 0.9 });
  rejects "negative budget" (fun () ->
      mk { base with Controller.migration_budget = -1. });
  rejects "negative retries" (fun () ->
      mk { base with Controller.max_retries = -1 });
  rejects "zero backoff" (fun () -> mk { base with Controller.backoff = 0. });
  rejects "foreign initial" (fun () ->
      Controller.create inst ~initial:(Mapping.single ~n:9 ~proc:0) ~threshold)

(* ------------------------------------------------------------------ *)
(* Stream_sim                                                          *)
(* ------------------------------------------------------------------ *)

let gen_stream_case =
  QCheck2.Gen.map
    (fun seed ->
      let inst = Helpers.random_instance ~n_max:6 ~p_max:4 seed in
      let rng = Rng.create (seed + 41) in
      let threshold =
        Instance.single_proc_period inst
        *. (0.8 +. (float_of_int (Rng.int_in rng 0 8) /. 10.))
      in
      let arrivals =
        Arrival_trace.generate rng
          (Heavy_tailed { rate = 1. /. threshold; alpha = 2. })
          ~count:(10 + Rng.int rng 40)
      in
      (inst, threshold, arrivals, Rng.int rng 1000))
    gen_seed

let prop_empty_churn_is_static =
  Helpers.qtest ~count:60 "empty churn = static workload sim (bit-for-bit)"
    gen_stream_case (fun (inst, threshold, arrivals, seed) ->
      let initial = Instance.single_proc_mapping inst in
      let config =
        {
          (Stream_sim.default_config ~threshold) with
          Stream_sim.arrivals;
          noise = W.Uniform_factor 0.2;
          seed;
        }
      in
      let streaming = Stream_sim.run ~config inst ~initial in
      let static =
        W.run
          ~config:
            {
              W.default_config with
              W.arrival = W.Trace arrivals;
              noise = W.Uniform_factor 0.2;
              datasets = Array.length arrivals;
              seed;
            }
          inst initial
      in
      Stdlib.compare streaming.Stream_sim.workload static = 0
      && streaming.Stream_sim.segments = 1
      && streaming.Stream_sim.reactions = []
      && streaming.Stream_sim.migrations = 0
      && streaming.Stream_sim.lost = 0)

let test_stream_sim_deterministic () =
  let inst, mapping, threshold = small_mapped () in
  let rng = Rng.create 3 in
  let arrivals =
    Arrival_trace.generate rng
      (Bursty { rate = 0.3 /. threshold; burst = 4; spread = 0.2 *. threshold })
      ~count:60
  in
  let victim = (Mapping.procs mapping).(0) in
  let horizon = arrivals.(Array.length arrivals - 1) in
  let churn =
    [
      ev (0.2 *. horizon) victim Churn.Crash;
      ev (0.5 *. horizon) victim Churn.Recover;
    ]
  in
  let config =
    {
      (Stream_sim.default_config ~threshold) with
      Stream_sim.arrivals;
      churn;
      retry = { W.max_retries = 2; backoff = threshold };
      seed = 7;
    }
  in
  let a = Stream_sim.run ~config inst ~initial:mapping in
  let b = Stream_sim.run ~config inst ~initial:mapping in
  Alcotest.(check bool) "bit-identical stats" true (Stdlib.compare a b = 0);
  Alcotest.(check bool) "crash produced segments" true (a.Stream_sim.segments >= 2);
  Alcotest.(check bool) "reactions recorded" true (a.Stream_sim.reactions <> []);
  Alcotest.(check bool) "degradation sane" true
    (Float.is_finite a.Stream_sim.degradation && a.Stream_sim.degradation > 0.)

let test_stream_sim_accounting () =
  let inst, mapping, threshold = small_mapped () in
  let arrivals = Array.init 40 (fun i -> float_of_int i *. threshold) in
  let victim = (Mapping.procs mapping).(0) in
  let churn =
    [ ev (5. *. threshold) victim Churn.Crash;
      ev (15. *. threshold) victim Churn.Recover ]
  in
  let config =
    {
      (Stream_sim.default_config ~threshold) with
      Stream_sim.arrivals;
      churn;
      retry = { W.max_retries = 3; backoff = threshold };
      seed = 1;
    }
  in
  let stats = Stream_sim.run ~config inst ~initial:mapping in
  Alcotest.(check int) "offered" 40 stats.Stream_sim.workload.W.offered;
  Alcotest.(check int) "lost = offered - completed"
    (40 - stats.Stream_sim.workload.W.completed)
    stats.Stream_sim.lost;
  Alcotest.(check bool) "volume only when stages moved" true
    (stats.Stream_sim.migrations > 0 || stats.Stream_sim.migration_volume = 0.);
  Alcotest.(check bool) "reaction mean <= max" true
    (stats.Stream_sim.reaction_mean <= stats.Stream_sim.reaction_max +. 1e-9);
  Alcotest.(check bool) "final mapping valid" true
    (Mapping.valid_on stats.Stream_sim.final_mapping inst.Instance.platform)

let test_stream_sim_rejects_bad_config () =
  let inst, mapping, threshold = small_mapped () in
  let base = Stream_sim.default_config ~threshold in
  rejects "empty arrivals" (fun () ->
      Stream_sim.run ~config:{ base with Stream_sim.arrivals = [||] } inst
        ~initial:mapping);
  rejects "unsorted arrivals" (fun () ->
      Stream_sim.run
        ~config:{ base with Stream_sim.arrivals = [| 2.; 1. |] }
        inst ~initial:mapping);
  rejects "negative arrival" (fun () ->
      Stream_sim.run
        ~config:{ base with Stream_sim.arrivals = [| -1.; 1. |] }
        inst ~initial:mapping);
  rejects "bad churn" (fun () ->
      Stream_sim.run
        ~config:{ base with Stream_sim.churn = [ ev 1. 9 Churn.Crash ] }
        inst ~initial:mapping);
  rejects "bad retry" (fun () ->
      Stream_sim.run
        ~config:{ base with Stream_sim.retry = { W.max_retries = -1; backoff = 0. } }
        inst ~initial:mapping)

let () =
  Alcotest.run "stream"
    [
      ( "arrival-trace",
        [
          prop_generators_valid;
          Alcotest.test_case "deterministic" `Quick test_generators_deterministic;
          Alcotest.test_case "bad spec" `Quick test_generators_reject_bad_spec;
          prop_trace_csv_round_trip;
          Alcotest.test_case "csv garbage" `Quick test_trace_csv_garbage;
        ] );
      ( "churn",
        [
          Alcotest.test_case "validate" `Quick test_churn_validate_rejects;
          Alcotest.test_case "csv round-trip" `Quick test_churn_csv_round_trip;
          Alcotest.test_case "csv garbage" `Quick test_churn_csv_garbage;
          Alcotest.test_case "crash compilation" `Quick test_churn_crash_compilation;
          Alcotest.test_case "state fold" `Quick test_churn_state_fold;
        ] );
      ( "resolver",
        [
          Alcotest.test_case "keeps healthy" `Quick test_resolver_keeps_healthy;
          Alcotest.test_case "dark platform" `Quick test_resolver_none_when_dark;
          Alcotest.test_case "avoids dead" `Quick test_resolver_avoids_dead;
          Alcotest.test_case "fallback" `Quick test_resolver_fallback_on_tight_threshold;
          Alcotest.test_case "rejects bad input" `Quick test_resolver_rejects_bad_input;
          prop_warm_cold_agree;
        ] );
      ( "controller",
        [
          prop_hysteresis_soundness;
          Alcotest.test_case "budget defers" `Quick test_controller_budget_defers;
          Alcotest.test_case "retry backoff" `Quick test_controller_retry_backoff;
          Alcotest.test_case "bad config" `Quick test_controller_rejects_bad_config;
        ] );
      ( "stream-sim",
        [
          prop_empty_churn_is_static;
          Alcotest.test_case "deterministic" `Quick test_stream_sim_deterministic;
          Alcotest.test_case "accounting" `Quick test_stream_sim_accounting;
          Alcotest.test_case "bad config" `Quick test_stream_sim_rejects_bad_config;
        ] );
    ]
