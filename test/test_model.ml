open Pipeline_model

(* ------------------------------------------------------------------ *)
(* Application                                                        *)
(* ------------------------------------------------------------------ *)

let test_app_basic () =
  let app = Helpers.small_app () in
  Alcotest.(check int) "n" 4 (Application.n app);
  Helpers.check_float "w2" 8. (Application.work app 2);
  Helpers.check_float "d0" 10. (Application.delta app 0);
  Helpers.check_float "d4" 10. (Application.delta app 4)

let test_app_work_sum () =
  let app = Helpers.small_app () in
  Helpers.check_float "whole" 20. (Application.work_sum app 1 4);
  Helpers.check_float "middle" 10. (Application.work_sum app 2 3);
  Helpers.check_float "single" 4. (Application.work_sum app 1 1);
  Helpers.check_float "total" 20. (Application.total_work app)

let test_app_bad_shapes () =
  Alcotest.check_raises "deltas length"
    (Invalid_argument "Application.make: deltas must have length n+1") (fun () ->
      ignore (Application.make ~deltas:[| 1.; 2. |] [| 1.; 2. |]));
  Alcotest.check_raises "empty" (Invalid_argument "Application.make: empty pipeline")
    (fun () -> ignore (Application.make ~deltas:[| 1. |] [||]))

let test_app_rejects_negative () =
  Alcotest.check_raises "negative work"
    (Invalid_argument "Application.make: works must be finite and >= 0") (fun () ->
      ignore (Application.make ~deltas:[| 0.; 0. |] [| -1. |]))

let test_app_rejects_nan () =
  Alcotest.check_raises "nan delta"
    (Invalid_argument "Application.make: deltas must be finite and >= 0") (fun () ->
      ignore (Application.make ~deltas:[| 0.; Float.nan |] [| 1. |]))

let test_app_uniform () =
  let app = Application.uniform ~n:5 ~work:3. ~delta:2. in
  Alcotest.(check int) "n" 5 (Application.n app);
  Helpers.check_float "total" 15. (Application.total_work app);
  Helpers.check_float "delta" 2. (Application.delta app 3)

let test_app_of_stages () =
  let app = Application.of_stages [ (1., 10.); (2., 20.) ] ~delta0:5. in
  Helpers.check_float "d0" 5. (Application.delta app 0);
  Helpers.check_float "d1" 10. (Application.delta app 1);
  Helpers.check_float "d2" 20. (Application.delta app 2);
  Helpers.check_float "w2" 2. (Application.work app 2)

let test_app_labels () =
  let app =
    Application.make ~labels:[| "load"; "fft" |] ~deltas:[| 1.; 1.; 1. |] [| 1.; 1. |]
  in
  Alcotest.(check string) "named" "fft" (Application.label app 2);
  let anon = Application.uniform ~n:2 ~work:1. ~delta:1. in
  Alcotest.(check string) "default" "S2" (Application.label anon 2)

let test_app_out_of_range () =
  let app = Helpers.small_app () in
  Alcotest.check_raises "work 0" (Invalid_argument "Application.work: stage out of range")
    (fun () -> ignore (Application.work app 0));
  Alcotest.check_raises "delta 5"
    (Invalid_argument "Application.delta: index out of range") (fun () ->
      ignore (Application.delta app 5));
  Alcotest.check_raises "work_sum inverted"
    (Invalid_argument "Application.work_sum: invalid interval") (fun () ->
      ignore (Application.work_sum app 3 2))

let test_app_copies_arrays () =
  let works = [| 1.; 2. |] and deltas = [| 0.; 0.; 0. |] in
  let app = Application.make ~deltas works in
  works.(0) <- 99.;
  Helpers.check_float "input mutation isolated" 1. (Application.work app 1);
  let w = Application.works app in
  w.(0) <- 42.;
  Helpers.check_float "output mutation isolated" 1. (Application.work app 1)

let test_app_equal () =
  let a = Application.uniform ~n:3 ~work:1. ~delta:2. in
  let b = Application.uniform ~n:3 ~work:1. ~delta:2. in
  let c = Application.uniform ~n:3 ~work:1. ~delta:3. in
  Alcotest.(check bool) "equal" true (Application.equal a b);
  Alcotest.(check bool) "not equal" false (Application.equal a c)

let prop_work_sum_matches_naive =
  Helpers.qtest "work_sum = naive sum"
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 30) (float_range 0. 50.))
        (pair small_nat small_nat))
    (fun (ws, (i, j)) ->
      let n = List.length ws in
      let works = Array.of_list ws in
      let app = Application.make ~deltas:(Array.make (n + 1) 0.) works in
      let d = 1 + (i mod n) in
      let e = d + (j mod (n - d + 1)) in
      let naive = ref 0. in
      for k = d to e do
        naive := !naive +. works.(k - 1)
      done;
      Helpers.feq ~eps:1e-6 !naive (Application.work_sum app d e))

(* ------------------------------------------------------------------ *)
(* Platform                                                           *)
(* ------------------------------------------------------------------ *)

let test_platform_comm_hom () =
  let pl = Helpers.small_platform () in
  Alcotest.(check int) "p" 3 (Platform.p pl);
  Helpers.check_float "speed" 4. (Platform.speed pl 1);
  Helpers.check_float "bandwidth" 10. (Platform.bandwidth pl 0 2);
  Helpers.check_float "io" 10. (Platform.io_bandwidth pl 1);
  Alcotest.(check bool) "comm hom" true (Platform.is_comm_homogeneous pl)

let test_platform_self_bandwidth_infinite () =
  let pl = Helpers.small_platform () in
  Helpers.check_float "self link free" infinity (Platform.bandwidth pl 1 1)

let test_platform_fully_homogeneous () =
  let pl = Platform.fully_homogeneous ~speed:2. ~bandwidth:5. 4 in
  Alcotest.(check int) "p" 4 (Platform.p pl);
  Helpers.check_float "speed" 2. (Platform.speed pl 3);
  Alcotest.(check bool) "comm hom" true (Platform.is_comm_homogeneous pl)

let test_platform_fastest_and_order () =
  let pl = Platform.comm_homogeneous ~bandwidth:1. [| 3.; 9.; 9.; 1. |] in
  Alcotest.(check int) "fastest (tie -> smallest index)" 1 (Platform.fastest pl);
  Alcotest.(check (array int)) "order" [| 1; 2; 0; 3 |] (Platform.by_decreasing_speed pl)

let test_platform_het () =
  let bandwidths = [| [| 0.; 2.; 3. |]; [| 2.; 0.; 4. |]; [| 3.; 4.; 0. |] |] in
  let pl = Platform.fully_heterogeneous ~bandwidths [| 1.; 2.; 3. |] in
  Helpers.check_float "link" 4. (Platform.bandwidth pl 1 2);
  Helpers.check_float "default io = row max" 3. (Platform.io_bandwidth pl 0);
  Alcotest.(check bool) "not comm hom" false (Platform.is_comm_homogeneous pl)

let test_platform_het_asymmetric_rejected () =
  let bandwidths = [| [| 0.; 2. |]; [| 3.; 0. |] |] in
  Alcotest.check_raises "asymmetric"
    (Invalid_argument "Platform.fully_heterogeneous: matrix must be symmetric")
    (fun () -> ignore (Platform.fully_heterogeneous ~bandwidths [| 1.; 1. |]))

let test_platform_rejects_bad_speed () =
  Alcotest.check_raises "zero speed"
    (Invalid_argument "Platform: speed must be finite and > 0") (fun () ->
      ignore (Platform.comm_homogeneous ~bandwidth:1. [| 0. |]));
  Alcotest.check_raises "no procs" (Invalid_argument "Platform: no processors")
    (fun () -> ignore (Platform.comm_homogeneous ~bandwidth:1. [||]))

let test_platform_custom_io () =
  let pl = Platform.comm_homogeneous ~io_bandwidth:5. ~bandwidth:10. [| 1.; 2. |] in
  Helpers.check_float "io" 5. (Platform.io_bandwidth pl 0);
  Alcotest.(check bool) "not comm hom (io differs)" false
    (Platform.is_comm_homogeneous pl)

let test_platform_restrict () =
  let pl = Platform.comm_homogeneous ~io_bandwidth:5. ~bandwidth:10. [| 1.; 2.; 3. |] in
  let sub = Platform.restrict pl [| 2; 0 |] in
  Alcotest.(check (array (float 0.)))
    "survivor speeds" [| 3.; 1. |] (Platform.speeds sub);
  Helpers.check_float "link" 10. (Platform.bandwidth sub 0 1);
  Helpers.check_float "io" 5. (Platform.io_bandwidth sub 1);
  (* One processor has no link: its I/O bandwidth stands in for it. *)
  let one = Platform.with_speeds (Platform.restrict pl [| 1 |]) [| 4.; 6. |] in
  Alcotest.(check (array (float 0.))) "new speeds" [| 4.; 6. |] (Platform.speeds one);
  Helpers.check_float "link from io" 5. (Platform.bandwidth one 0 1)

(* ------------------------------------------------------------------ *)
(* Interval                                                           *)
(* ------------------------------------------------------------------ *)

let test_interval_basics () =
  let iv = Interval.make ~first:2 ~last:5 in
  Alcotest.(check int) "length" 4 (Interval.length iv);
  Alcotest.(check bool) "mem" true (Interval.mem iv 3);
  Alcotest.(check bool) "not mem" false (Interval.mem iv 6);
  Alcotest.(check string) "to_string" "[2..5]" (Interval.to_string iv);
  Alcotest.(check string) "singleton string" "[7]"
    (Interval.to_string (Interval.singleton 7))

let test_interval_bad () =
  Alcotest.check_raises "inverted"
    (Invalid_argument "Interval.make: need 1 <= first <= last") (fun () ->
      ignore (Interval.make ~first:3 ~last:2))

let test_interval_split () =
  let iv = Interval.make ~first:1 ~last:4 in
  Alcotest.(check (list int)) "split points" [ 1; 2; 3 ] (Interval.split_points iv);
  let l, r = Interval.split_at iv 2 in
  Alcotest.(check string) "left" "[1..2]" (Interval.to_string l);
  Alcotest.(check string) "right" "[3..4]" (Interval.to_string r);
  let a, b, c = Interval.split3_at iv 1 3 in
  Alcotest.(check string) "a" "[1]" (Interval.to_string a);
  Alcotest.(check string) "b" "[2..3]" (Interval.to_string b);
  Alcotest.(check string) "c" "[4]" (Interval.to_string c)

let test_interval_split_bad () =
  let iv = Interval.make ~first:1 ~last:3 in
  Alcotest.check_raises "cut at end" (Invalid_argument "Interval.split_at: bad cut")
    (fun () -> ignore (Interval.split_at iv 3));
  Alcotest.check_raises "bad 3-cut" (Invalid_argument "Interval.split3_at: bad cuts")
    (fun () -> ignore (Interval.split3_at iv 2 2))

let test_interval_partition_of () =
  let mk f l = Interval.make ~first:f ~last:l in
  Alcotest.(check bool) "valid" true (Interval.partition_of 5 [ mk 1 2; mk 3 5 ]);
  Alcotest.(check bool) "gap" false (Interval.partition_of 5 [ mk 1 2; mk 4 5 ]);
  Alcotest.(check bool) "short" false (Interval.partition_of 5 [ mk 1 4 ]);
  Alcotest.(check bool) "empty" false (Interval.partition_of 5 []);
  Alcotest.(check bool) "wrong start" false (Interval.partition_of 5 [ mk 2 5 ])

(* ------------------------------------------------------------------ *)
(* Mapping                                                            *)
(* ------------------------------------------------------------------ *)

let test_mapping_make () =
  let m =
    Mapping.make ~n:4
      [ (Interval.make ~first:1 ~last:2, 1); (Interval.make ~first:3 ~last:4, 0) ]
  in
  Alcotest.(check int) "m" 2 (Mapping.m m);
  Alcotest.(check int) "proc of stage 3" 0 (Mapping.proc_of_stage m 3);
  Alcotest.(check bool) "uses 1" true (Mapping.uses m 1);
  Alcotest.(check bool) "uses 2" false (Mapping.uses m 2);
  Alcotest.(check string) "to_string" "{[1..2]->P1, [3..4]->P0}" (Mapping.to_string m)

let test_mapping_rejects_bad_partition () =
  Alcotest.check_raises "not a partition"
    (Invalid_argument "Mapping.make: intervals must partition [1..n] in order")
    (fun () -> ignore (Mapping.make ~n:4 [ (Interval.make ~first:1 ~last:2, 0) ]))

let test_mapping_rejects_duplicate_proc () =
  Alcotest.check_raises "duplicate processor"
    (Invalid_argument "Mapping: processor assigned to several intervals") (fun () ->
      ignore
        (Mapping.make ~n:4
           [
             (Interval.make ~first:1 ~last:2, 0);
             (Interval.make ~first:3 ~last:4, 0);
           ]))

let test_mapping_single_and_one_to_one () =
  let s = Mapping.single ~n:5 ~proc:2 in
  Alcotest.(check int) "single m" 1 (Mapping.m s);
  Alcotest.(check int) "single proc" 2 (Mapping.proc s 0);
  let o = Mapping.one_to_one ~procs:[| 2; 0; 1 |] in
  Alcotest.(check int) "1-1 m" 3 (Mapping.m o);
  Alcotest.(check int) "stage 2 on 0" 0 (Mapping.proc_of_stage o 2)

let test_mapping_of_cuts () =
  let m = Mapping.of_cuts ~n:5 ~cuts:[ 2; 3 ] ~procs:[ 0; 1; 2 ] in
  Alcotest.(check string) "layout" "{[1..2]->P0, [3]->P1, [4..5]->P2}"
    (Mapping.to_string m)

let test_mapping_replace () =
  let m = Mapping.single ~n:4 ~proc:0 in
  let m' =
    Mapping.replace m ~j:0
      [ (Interval.make ~first:1 ~last:2, 0); (Interval.make ~first:3 ~last:4, 1) ]
  in
  Alcotest.(check string) "replaced" "{[1..2]->P0, [3..4]->P1}" (Mapping.to_string m')

let test_mapping_replace_bad_tiling () =
  let m = Mapping.single ~n:4 ~proc:0 in
  Alcotest.check_raises "bad tiling"
    (Invalid_argument "Mapping.replace: parts must tile the replaced interval")
    (fun () ->
      ignore (Mapping.replace m ~j:0 [ (Interval.make ~first:1 ~last:3, 0) ]))

let test_mapping_interval_of_proc () =
  let m = Mapping.of_cuts ~n:4 ~cuts:[ 2 ] ~procs:[ 3; 1 ] in
  (match Mapping.interval_of_proc m 1 with
  | Some iv -> Alcotest.(check string) "found" "[3..4]" (Interval.to_string iv)
  | None -> Alcotest.fail "expected interval");
  Alcotest.(check bool) "absent" true (Mapping.interval_of_proc m 0 = None)

let test_mapping_valid_on () =
  let m = Mapping.single ~n:3 ~proc:5 in
  Alcotest.(check bool) "too few procs" false
    (Mapping.valid_on m (Helpers.small_platform ()))

let test_mapping_renumber_and_migration () =
  let before = Mapping.of_cuts ~n:4 ~cuts:[ 2 ] ~procs:[ 0; 1 ] in
  (* Solved on the survivors [3; 1; 4] of a 5-processor platform. *)
  let solved = Mapping.of_cuts ~n:4 ~cuts:[ 1; 2 ] ~procs:[ 2; 0; 1 ] in
  let after = Mapping.renumber [| 3; 1; 4 |] solved in
  Alcotest.(check string) "original indices" "{[1]->P4, [2]->P3, [3..4]->P1}"
    (Mapping.to_string after);
  (* Stages 1 and 2 move; each is charged its input size δ_{k-1}. *)
  let app = Application.make ~deltas:[| 1.; 2.; 4.; 8.; 16. |] [| 1.; 1.; 1.; 1. |] in
  let stages, volume = Mapping.migration app ~before ~after in
  Alcotest.(check int) "moved stages" 2 stages;
  Helpers.check_float "moved volume" 3. volume;
  Alcotest.(check (pair int (float 0.))) "no move" (0, 0.)
    (Mapping.migration app ~before ~after:before)

(* ------------------------------------------------------------------ *)
(* Cost (hand-computed examples)                                      *)
(* ------------------------------------------------------------------ *)

(* Instance: works [4;8;2;6], deltas [10;20;30;20;10], speeds [2;4;1], b=10. *)

let test_metrics_single_proc () =
  let inst = Helpers.small_instance () in
  let m = Mapping.single ~n:4 ~proc:1 in
  (* cycle = 10/10 + 20/4 + 10/10 = 7; latency identical. *)
  Helpers.check_float "period" 7. (Cost.period (Cost.get inst.app inst.platform) m);
  Helpers.check_float "latency" 7. (Cost.latency (Cost.get inst.app inst.platform) m)

let test_metrics_two_intervals () =
  let inst = Helpers.small_instance () in
  let m = Mapping.of_cuts ~n:4 ~cuts:[ 2 ] ~procs:[ 1; 0 ] in
  (* I1=[1,2] on P1 (s=4): 10/10 + 12/4 + 30/10 = 7
     I2=[3,4] on P0 (s=2): 30/10 + 8/2 + 10/10 = 8 *)
  Helpers.check_float "cycle 0" 7. (Cost.cycle_time (Cost.get inst.app inst.platform) m 0);
  Helpers.check_float "cycle 1" 8. (Cost.cycle_time (Cost.get inst.app inst.platform) m 1);
  Helpers.check_float "period" 8. (Cost.period (Cost.get inst.app inst.platform) m);
  Alcotest.(check int) "bottleneck" 1 (Cost.bottleneck (Cost.get inst.app inst.platform) m);
  (* latency = (1+3) + (3+4) + 10/10 = 12 *)
  Helpers.check_float "latency" 12. (Cost.latency (Cost.get inst.app inst.platform) m)

let test_metrics_summary_consistent () =
  let inst = Helpers.small_instance () in
  let m = Mapping.of_cuts ~n:4 ~cuts:[ 1; 2 ] ~procs:[ 2; 1; 0 ] in
  let s = Cost.summary (Cost.get inst.app inst.platform) m in
  Helpers.check_float "period" (Cost.period (Cost.get inst.app inst.platform) m)
    s.Cost.period;
  Helpers.check_float "latency" (Cost.latency (Cost.get inst.app inst.platform) m)
    s.Cost.latency;
  Alcotest.(check int) "intervals" 3 s.Cost.intervals

let test_metrics_het_uses_links () =
  let bandwidths = [| [| 0.; 2. |]; [| 2.; 0. |] |] in
  let pl =
    Platform.fully_heterogeneous ~io_bandwidths:[| 10.; 10. |] ~bandwidths
      [| 1.; 1. |]
  in
  let app = Application.make ~deltas:[| 10.; 4.; 10. |] [| 2.; 2. |] in
  let inst = Instance.make app pl in
  let m = Mapping.one_to_one ~procs:[| 0; 1 |] in
  (* I1: 10/10 + 2/1 + 4/2 = 5; I2: 4/2 + 2/1 + 10/10 = 5 *)
  Helpers.check_float "period" 5. (Cost.period (Cost.get inst.app inst.platform) m);
  (* latency = (1+2) + (2+2) + 1 = 8 *)
  Helpers.check_float "latency" 8. (Cost.latency (Cost.get inst.app inst.platform) m)

let test_metrics_rejects_mismatch () =
  let inst = Helpers.small_instance () in
  let m = Mapping.single ~n:3 ~proc:0 in
  Alcotest.check_raises "wrong n"
    (Invalid_argument "Cost: mapping and application disagree on n") (fun () ->
      ignore (Cost.period (Cost.get inst.app inst.platform) m))

let test_metrics_zero_deltas () =
  (* With δ = 0 and b = 1 the period reduces to the weighted bottleneck. *)
  let app = Application.make ~deltas:[| 0.; 0.; 0. |] [| 6.; 3. |] in
  let pl = Platform.comm_homogeneous ~bandwidth:1. [| 2.; 3. |] in
  let m = Mapping.one_to_one ~procs:[| 1; 0 |] in
  Helpers.check_float "period" 2. (Cost.period (Cost.get app pl) m);
  Helpers.check_float "latency" 3.5 (Cost.latency (Cost.get app pl) m)

let prop_one_interval_period_equals_latency =
  Helpers.qtest "single-interval mapping: period = latency"
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let inst = Helpers.random_instance seed in
      let n = Application.n inst.app in
      let mapping = Mapping.single ~n ~proc:0 in
      let s = Cost.summary (Cost.get inst.app inst.platform) mapping in
      Helpers.feq s.Cost.period s.Cost.latency)

let prop_period_at_most_latency_for_two_intervals =
  (* With identical in/out bandwidths, each cycle-time is a subset of the
     terms summed by the latency, so period <= latency always holds on
     comm-homogeneous platforms. *)
  Helpers.qtest "period <= latency (comm-hom)"
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let inst = Helpers.random_instance seed in
      let n = Application.n inst.app in
      let p = Platform.p inst.platform in
      let mapping =
        if n >= 2 && p >= 2 then Mapping.of_cuts ~n ~cuts:[ n / 2 ] ~procs:[ 0; 1 ]
        else Mapping.single ~n ~proc:0
      in
      let s = Cost.summary (Cost.get inst.app inst.platform) mapping in
      s.Cost.period <= s.Cost.latency +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Generators and Instance                                            *)
(* ------------------------------------------------------------------ *)

let test_app_generator_e1 () =
  let rng = Pipeline_util.Rng.create 1 in
  let app = App_generator.generate rng (App_generator.e1 ~n:20) in
  Alcotest.(check int) "n" 20 (Application.n app);
  for k = 0 to 20 do
    Helpers.check_float "homogeneous deltas" 10. (Application.delta app k)
  done;
  for k = 1 to 20 do
    let w = Application.work app k in
    Alcotest.(check bool) "w in [1,20]" true (w >= 1. && w <= 20.);
    Helpers.check_float "integer" (Float.round w) w
  done

let test_app_generator_e2_ranges () =
  let rng = Pipeline_util.Rng.create 2 in
  let app = App_generator.generate rng (App_generator.e2 ~n:50) in
  for k = 0 to 50 do
    let d = Application.delta app k in
    Alcotest.(check bool) "delta in [1,100]" true (d >= 1. && d <= 100.)
  done

let test_app_generator_e3_ranges () =
  let rng = Pipeline_util.Rng.create 3 in
  let app = App_generator.generate rng (App_generator.e3 ~n:50) in
  for k = 1 to 50 do
    let w = Application.work app k in
    Alcotest.(check bool) "w in [10,1000]" true (w >= 10. && w <= 1000.)
  done

let test_app_generator_e4_fractional () =
  let rng = Pipeline_util.Rng.create 4 in
  let app = App_generator.generate rng (App_generator.e4 ~n:100) in
  let fractional = ref false in
  for k = 1 to 100 do
    let w = Application.work app k in
    Alcotest.(check bool) "w in [0.01,10]" true (w >= 0.01 && w <= 10.);
    if Float.round w <> w then fractional := true
  done;
  Alcotest.(check bool) "not all integers" true !fractional

let test_app_generator_e6 () =
  let rng = Pipeline_util.Rng.create 7 in
  let app = App_generator.generate rng (App_generator.e6 ~n:100) in
  (* Uniform deltas are load-bearing: the all-fastest relaxation and
     the lattice ceiling (Cost.lattice_ceiling) require them. *)
  for k = 0 to 100 do
    Helpers.check_float "fixed deltas" 25. (Application.delta app k)
  done;
  for k = 1 to 100 do
    let w = Application.work app k in
    Alcotest.(check bool) "w in [1,100]" true (w >= 1. && w <= 100.);
    Helpers.check_float "integer" (Float.round w) w
  done

let test_platform_generator_web_scale () =
  let rng = Pipeline_util.Rng.create 8 in
  let pl = Platform_generator.web_scale rng ~p:100 in
  Alcotest.(check bool) "comm hom" true (Platform.is_comm_homogeneous pl);
  Array.iter
    (fun s ->
      Alcotest.(check bool) "speed is a tier multiple" true
        (List.mem s [ 5.; 10.; 15.; 20. ]))
    (Platform.speeds pl);
  Helpers.check_float "b" 10. (Platform.io_bandwidth pl 0)

let test_platform_generator_ranges () =
  let rng = Pipeline_util.Rng.create 5 in
  let pl = Platform_generator.comm_homogeneous rng ~p:50 in
  Alcotest.(check bool) "comm hom" true (Platform.is_comm_homogeneous pl);
  Array.iter
    (fun s -> Alcotest.(check bool) "speed in [1,20]" true (s >= 1. && s <= 20.))
    (Platform.speeds pl);
  Helpers.check_float "b" 10. (Platform.io_bandwidth pl 0)

let test_platform_generator_het () =
  let rng = Pipeline_util.Rng.create 6 in
  let pl = Platform_generator.fully_heterogeneous rng ~p:8 in
  Alcotest.(check bool) "not comm hom (almost surely)" true
    (not (Platform.is_comm_homogeneous pl));
  for u = 0 to 7 do
    for v = 0 to 7 do
      if u <> v then begin
        let b = Platform.bandwidth pl u v in
        Alcotest.(check bool) "b in [5,15]" true (b >= 5. && b <= 15.);
        Helpers.check_float "symmetric" b (Platform.bandwidth pl v u)
      end
    done
  done

let test_instance_helpers () =
  let inst = Helpers.small_instance () in
  let single = Instance.single_proc_mapping inst in
  Alcotest.(check int) "fastest proc" 1 (Mapping.proc single 0);
  Helpers.check_float "optimal latency" 7. (Instance.optimal_latency inst);
  Helpers.check_float "single period" 7. (Instance.single_proc_period inst)


(* ------------------------------------------------------------------ *)
(* Instance_io                                                         *)
(* ------------------------------------------------------------------ *)

let sample_text =
  "# demo\n\
   pipeline 3\n\
   labels load fft store\n\
   works 4 8 2\t# trailing comment\n\
   deltas 10 20 30 20\n\
   platform comm-hom\n\
   bandwidth 10\n\
   speeds 2 4 1\n"

let test_io_parse () =
  match Instance_io.of_string sample_text with
  | Error e -> Alcotest.failf "parse error: %a" Instance_io.pp_error e
  | Ok inst ->
    Alcotest.(check int) "n" 3 (Application.n inst.Instance.app);
    Alcotest.(check string) "label" "fft" (Application.label inst.Instance.app 2);
    Helpers.check_float "w2" 8. (Application.work inst.Instance.app 2);
    Helpers.check_float "speed" 4. (Platform.speed inst.Instance.platform 1);
    Alcotest.(check bool) "comm hom" true
      (Platform.is_comm_homogeneous inst.Instance.platform)

let test_io_roundtrip_comm_hom () =
  let inst = Helpers.small_instance () in
  match Instance_io.of_string (Instance_io.to_string inst) with
  | Error e -> Alcotest.failf "roundtrip error: %a" Instance_io.pp_error e
  | Ok back ->
    Alcotest.(check bool) "app equal" true
      (Application.equal inst.Instance.app back.Instance.app);
    Alcotest.(check bool) "platform equal" true
      (Platform.equal inst.Instance.platform back.Instance.platform)

let test_io_roundtrip_het () =
  let bandwidths = [| [| 0.; 2.; 5. |]; [| 2.; 0.; 3. |]; [| 5.; 3.; 0. |] |] in
  let pl =
    Platform.fully_heterogeneous ~io_bandwidths:[| 7.; 8.; 9. |] ~bandwidths
      [| 1.; 2.; 3. |]
  in
  let inst = Instance.make (Application.uniform ~n:2 ~work:1. ~delta:1.) pl in
  match Instance_io.of_string (Instance_io.to_string inst) with
  | Error e -> Alcotest.failf "roundtrip error: %a" Instance_io.pp_error e
  | Ok back ->
    Alcotest.(check bool) "platform equal" true
      (Platform.equal inst.Instance.platform back.Instance.platform)

let test_io_reports_line () =
  match Instance_io.of_string "pipeline 2\nworks 1 x\n" with
  | Ok _ -> Alcotest.fail "expected an error"
  | Error e -> Alcotest.(check int) "line" 2 e.Instance_io.line

let test_io_unknown_key () =
  match Instance_io.of_string "pipeline 1\nbogus 1\n" with
  | Ok _ -> Alcotest.fail "expected an error"
  | Error e ->
    Alcotest.(check bool) "mentions key" true
      (Str_find.contains e.Instance_io.message "bogus")

let test_io_missing_sections () =
  (match Instance_io.of_string "works 1\ndeltas 0 0\n" with
  | Error e ->
    Alcotest.(check bool) "missing pipeline" true
      (Str_find.contains e.Instance_io.message "pipeline")
  | Ok _ -> Alcotest.fail "expected error");
  match
    Instance_io.of_string "pipeline 1\nworks 1\ndeltas 0 0\nplatform comm-hom\nspeeds 1\n"
  with
  | Error e ->
    Alcotest.(check bool) "missing bandwidth" true
      (Str_find.contains e.Instance_io.message "bandwidth")
  | Ok _ -> Alcotest.fail "expected error"

let test_io_het_missing_link () =
  let text =
    "pipeline 1\nworks 1\ndeltas 0 0\nplatform fully-het\nspeeds 1 1 1\nlink 0 1 5\n"
  in
  match Instance_io.of_string text with
  | Error e ->
    Alcotest.(check bool) "names the missing link" true
      (Str_find.contains e.Instance_io.message "link 0 2")
  | Ok _ -> Alcotest.fail "expected error"

let test_io_shape_mismatch () =
  match Instance_io.of_string "pipeline 2\nworks 1\ndeltas 0 0 0\nplatform comm-hom\nbandwidth 1\nspeeds 1\n" with
  | Error e ->
    Alcotest.(check bool) "works shape" true
      (Str_find.contains e.Instance_io.message "works")
  | Ok _ -> Alcotest.fail "expected error"

let test_io_file_roundtrip () =
  let dir = Filename.temp_file "pwio" "" in
  Sys.remove dir;
  let path = Filename.concat dir "instance.pw" in
  let inst = Helpers.small_instance () in
  Instance_io.save path inst;
  match Instance_io.load path with
  | Error e -> Alcotest.failf "load error: %a" Instance_io.pp_error e
  | Ok back ->
    Alcotest.(check bool) "equal" true
      (Application.equal inst.Instance.app back.Instance.app)

let test_io_load_missing_file () =
  match Instance_io.load "/nonexistent/nope.pw" with
  | Ok _ -> Alcotest.fail "expected error"
  | Error e -> Alcotest.(check int) "line 0" 0 e.Instance_io.line

(* CLI hardening: truncated and garbage files must come back as [Error],
   never as an exception — the CLI turns the error into a one-line
   diagnostic. *)
let test_io_garbage_and_truncated_files () =
  let dir = Filename.temp_file "pwio-garbage" "" in
  Sys.remove dir;
  let write name content =
    let path = Filename.concat dir name in
    (match Sys.is_directory dir with
    | true -> ()
    | false | (exception Sys_error _) -> Sys.mkdir dir 0o755);
    let oc = open_out_bin path in
    output_string oc content;
    close_out oc;
    path
  in
  let errors name content =
    match Instance_io.load (write name content) with
    | Error _ -> true
    | Ok _ -> false
    | exception _ -> Alcotest.failf "%s: raised instead of Error" name
  in
  Alcotest.(check bool) "empty file" true (errors "empty.pw" "");
  Alcotest.(check bool) "binary garbage" true
    (errors "binary.pw" "\x00\xffgarbage\x01\x7f\n\xfe");
  let valid = Instance_io.to_string (Helpers.small_instance ()) in
  let half = String.sub valid 0 (String.length valid / 2) in
  Alcotest.(check bool) "truncated instance" true (errors "half.pw" half);
  Alcotest.(check bool) "first line only" true
    (errors "first.pw" (List.hd (String.split_on_char '\n' valid)))

let test_mapping_io_garbage () =
  let is_error s =
    match Mapping_io.of_string s with
    | Error _ -> true
    | Ok _ -> false
    | exception _ -> Alcotest.failf "%S: raised instead of Error" s
  in
  Alcotest.(check bool) "binary" true (is_error "\x00\xff\x01:\x02");
  Alcotest.(check bool) "truncated range" true (is_error "1-");
  Alcotest.(check bool) "truncated proc" true (is_error "1-3:");
  Alcotest.(check bool) "trailing junk" true (is_error "1-3:0 ###");
  Alcotest.(check bool) "reversed range" true (is_error "3-1:0");
  Alcotest.(check bool) "negative proc" true (is_error "1-3:-2")

let prop_io_roundtrip_random =
  Helpers.qtest ~count:60 "of_string (to_string inst) preserves the instance"
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let inst = Helpers.random_instance seed in
      match Instance_io.of_string (Instance_io.to_string inst) with
      | Error _ -> false
      | Ok back ->
        Application.equal inst.Instance.app back.Instance.app
        && Platform.equal inst.Instance.platform back.Instance.platform)


(* ------------------------------------------------------------------ *)
(* Skeleton                                                            *)
(* ------------------------------------------------------------------ *)

let demo_skeleton () =
  Skeleton.(
    pipeline
      [
        stage "decode" ~work:55. ~out:6.2;
        stage "scale" ~work:30. ~out:3.1;
        deal (stage "encode" ~work:140. ~out:0.5);
        stage "mux" ~work:6. ~out:0.4;
      ])

let test_skeleton_compiles () =
  let app = Skeleton.to_application ~input:0.8 (demo_skeleton ()) in
  Alcotest.(check int) "n" 4 (Application.n app);
  Helpers.check_float "input" 0.8 (Application.delta app 0);
  Helpers.check_float "encode work" 140. (Application.work app 3);
  Helpers.check_float "encode out" 0.5 (Application.delta app 3);
  Alcotest.(check string) "label" "encode" (Application.label app 3)

let test_skeleton_deal_stages () =
  Alcotest.(check (list int)) "replicable" [ 3 ] (Skeleton.deal_stages (demo_skeleton ()));
  Alcotest.(check (list int)) "deal over a pipeline marks all" [ 1; 2 ]
    Skeleton.(
      deal_stages
        (deal (pipeline [ stage "a" ~work:1. ~out:1.; stage "b" ~work:1. ~out:1. ])))

let test_skeleton_flattens () =
  let nested =
    Skeleton.(
      pipeline
        [
          pipeline [ stage "a" ~work:1. ~out:1.; stage "b" ~work:2. ~out:2. ];
          stage "c" ~work:3. ~out:3.;
        ])
  in
  Alcotest.(check int) "length" 3 (Skeleton.length nested);
  Alcotest.(check (list string)) "order" [ "a"; "b"; "c" ]
    (List.map (fun (l, _, _) -> l) (Skeleton.stages nested))

let test_skeleton_pp_and_roundtrip () =
  let s = demo_skeleton () in
  Alcotest.(check string) "pp" "decode >> scale >> deal(encode) >> mux"
    (Format.asprintf "%a" Skeleton.pp s);
  let app = Skeleton.to_application ~input:0.8 s in
  let lifted = Skeleton.of_application app in
  let app' = Skeleton.to_application ~input:0.8 lifted in
  Alcotest.(check bool) "roundtrip" true (Application.equal app app')

let test_skeleton_empty_rejected () =
  Alcotest.check_raises "empty" (Invalid_argument "Skeleton.pipeline: empty pipeline")
    (fun () -> ignore (Skeleton.pipeline []))

(* ------------------------------------------------------------------ *)
(* Mapping_io                                                          *)
(* ------------------------------------------------------------------ *)

let test_mapping_io_to_string () =
  let m = Mapping.of_cuts ~n:6 ~cuts:[ 3; 4 ] ~procs:[ 2; 0; 1 ] in
  Alcotest.(check string) "compact" "1-3:2 4:0 5-6:1" (Mapping_io.to_string m)

let test_mapping_io_parse () =
  match Mapping_io.of_string "1-3:2 4:0 5-6:1" with
  | Error e -> Alcotest.fail e
  | Ok m ->
    Alcotest.(check int) "n" 6 (Mapping.n m);
    Alcotest.(check int) "m" 3 (Mapping.m m);
    Alcotest.(check int) "proc of 4" 0 (Mapping.proc_of_stage m 4)

let test_mapping_io_errors () =
  let is_error s = match Mapping_io.of_string s with Error _ -> true | Ok _ -> false in
  Alcotest.(check bool) "empty" true (is_error "");
  Alcotest.(check bool) "gap" true (is_error "1-2:0 4-5:1");
  Alcotest.(check bool) "dup proc" true (is_error "1-2:0 3-4:0");
  Alcotest.(check bool) "garbage" true (is_error "1..2:0");
  Alcotest.(check bool) "bad proc" true (is_error "1-2:x")

let prop_mapping_io_roundtrip =
  Helpers.qtest "mapping text roundtrip"
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let inst = Helpers.random_instance seed in
      let rng = Pipeline_util.Rng.create (seed + 3) in
      let n = Application.n inst.Instance.app in
      let p = Platform.p inst.Instance.platform in
      let m = 1 + Pipeline_util.Rng.int rng (min n p) in
      let cuts =
        if m = 1 then []
        else begin
          let positions = Array.init (n - 1) (fun i -> i + 1) in
          Pipeline_util.Rng.shuffle rng positions;
          List.sort compare (Array.to_list (Array.sub positions 0 (m - 1)))
        end
      in
      let procs =
        Array.to_list (Array.sub (Pipeline_util.Rng.permutation rng p) 0 m)
      in
      let mapping = Mapping.of_cuts ~n ~cuts ~procs in
      match Mapping_io.of_string (Mapping_io.to_string mapping) with
      | Ok back -> Mapping.equal mapping back
      | Error _ -> false)


(* ------------------------------------------------------------------ *)
(* Transform                                                           *)
(* ------------------------------------------------------------------ *)

let test_coarsen_shapes () =
  let app = Application.make ~deltas:[| 1.; 2.; 3.; 4.; 5.; 6. |] [| 10.; 20.; 30.; 40.; 50. |] in
  let coarse = Transform.coarsen ~factor:2 app in
  Alcotest.(check int) "groups" 3 (Application.n coarse);
  Helpers.check_float "g1 work" 30. (Application.work coarse 1);
  Helpers.check_float "g3 work (short tail)" 50. (Application.work coarse 3);
  Helpers.check_float "d0 kept" 1. (Application.delta coarse 0);
  Helpers.check_float "boundary delta" 3. (Application.delta coarse 1);
  Helpers.check_float "final delta" 6. (Application.delta coarse 3);
  Alcotest.(check string) "joined labels" "S1+S2" (Application.label coarse 1)

let prop_coarsen_preserves_metrics =
  (* Any mapping of the coarse app, lifted back, has identical period and
     latency on the original instance. *)
  Helpers.qtest ~count:60 "coarse mapping metrics = refined mapping metrics"
    QCheck2.Gen.(pair (int_range 0 100_000) (int_range 1 4))
    (fun (seed, factor) ->
      let inst = Helpers.random_instance seed in
      let n = Application.n inst.Instance.app in
      let coarse_app = Transform.coarsen ~factor inst.Instance.app in
      let coarse_inst = Instance.make coarse_app inst.Instance.platform in
      let groups = Application.n coarse_app in
      let p = Platform.p inst.Instance.platform in
      let rng = Pipeline_util.Rng.create (seed + 11) in
      let m = 1 + Pipeline_util.Rng.int rng (min groups p) in
      let cuts =
        if m = 1 then []
        else begin
          let positions = Array.init (groups - 1) (fun i -> i + 1) in
          Pipeline_util.Rng.shuffle rng positions;
          List.sort compare (Array.to_list (Array.sub positions 0 (m - 1)))
        end
      in
      let procs =
        Array.to_list (Array.sub (Pipeline_util.Rng.permutation rng p) 0 m)
      in
      let coarse_mapping = Mapping.of_cuts ~n:groups ~cuts ~procs in
      let refined = Transform.refine_mapping ~factor ~n coarse_mapping in
      let a = Cost.summary (Cost.get coarse_app coarse_inst.Instance.platform) coarse_mapping in
      let b = Cost.summary (Cost.get inst.Instance.app inst.Instance.platform) refined in
      Helpers.feq a.Cost.period b.Cost.period
      && Helpers.feq a.Cost.latency b.Cost.latency)

let test_coarse_solve_lifts () =
  let inst = Helpers.random_instance 909 in
  let solve (coarse : Instance.t) =
    Option.map
      (fun (s : Pipeline_core.Solution.t) -> s.Pipeline_core.Solution.mapping)
      (Pipeline_core.Sp_mono_p.solve coarse
         ~period:(Instance.single_proc_period coarse))
  in
  match Transform.coarse_solve ~factor:2 ~solve inst with
  | None -> Alcotest.fail "expected a lifted mapping"
  | Some mapping ->
    Alcotest.(check int) "covers all original stages"
      (Application.n inst.Instance.app)
      (Mapping.n mapping)

let test_refine_rejects_mismatch () =
  let mapping = Mapping.single ~n:2 ~proc:0 in
  Alcotest.(check bool) "wrong size" true
    (try
       ignore (Transform.refine_mapping ~factor:2 ~n:10 mapping);
       false
     with Invalid_argument _ -> true)

let test_scale () =
  let app = Helpers.small_app () in
  let scaled = Transform.scale ~work:2. ~data:0.5 app in
  Helpers.check_float "work doubled" 8. (Application.work scaled 1);
  Helpers.check_float "delta halved" 5. (Application.delta scaled 0);
  Alcotest.(check bool) "bad factor" true
    (try ignore (Transform.scale ~work:0. app); false
     with Invalid_argument _ -> true)

(* --- The metamorphic laws of Transform (DESIGN.md §13) --- *)

module Ureg = Pipeline_registry

let test_scale_rates_shapes () =
  let pl =
    Platform.fully_heterogeneous ~io_bandwidths:[| 4.; 6. |]
      ~bandwidths:[| [| 0.; 8. |]; [| 8.; 0. |] |]
      [| 2.; 3. |]
  in
  let scaled = Transform.scale_rates ~factor:2. pl in
  Helpers.check_float "speed" 4. (Platform.speed scaled 0);
  Helpers.check_float "link" 16. (Platform.bandwidth scaled 0 1);
  Helpers.check_float "io" 12. (Platform.io_bandwidth scaled 1);
  Alcotest.(check bool) "kind preserved" false
    (Platform.is_comm_homogeneous scaled);
  Alcotest.(check bool) "bad factor" true
    (try ignore (Transform.scale_rates ~factor:0. pl); false
     with Invalid_argument _ -> true)

let test_drop_comm_and_homogenise () =
  let app = Transform.drop_comm (Helpers.small_app ()) in
  Alcotest.(check int) "n kept" 4 (Application.n app);
  for k = 0 to 4 do
    Helpers.check_float "delta zero" 0. (Application.delta app k)
  done;
  Helpers.check_float "work kept" 8. (Application.work app 2);
  let pl =
    Transform.comm_homogenise ~bandwidth:10.
      (Platform.fully_heterogeneous
         ~bandwidths:[| [| 0.; 3. |]; [| 3.; 0. |] |]
         [| 2.; 5. |])
  in
  Alcotest.(check bool) "now comm-hom" true (Platform.is_comm_homogeneous pl);
  Helpers.check_float "speeds kept" 5. (Platform.speed pl 1)

(* Per registry row, a deterministic threshold of the row's kind. *)
let row_threshold (info : Ureg.info) (inst : Instance.t) =
  match info.Ureg.kind with
  | Ureg.Period_fixed ->
    0.8 *. Instance.single_proc_period inst
  | Ureg.Latency_fixed ->
    1.5 *. Instance.optimal_latency inst

let outcomes_equal ~factor (a : Ureg.outcome option) (b : Ureg.outcome option)
    =
  match (a, b) with
  | None, None -> true
  | Some a, Some b ->
    b.Ureg.period = a.Ureg.period /. factor
    && b.Ureg.latency = a.Ureg.latency /. factor
    && Deal_mapping.to_string b.Ureg.mapping
       = Deal_mapping.to_string a.Ureg.mapping
    && b.Ureg.failure = a.Ureg.failure
  | _ -> false

let prop_scale_rates_scales_every_row =
  (* Scaling every rate by 2^k scales every cost expression bit-exactly
     by 2^-k, so every registry row — all stacks — returns the same
     mapping with period and latency scaled exactly, at the scaled
     threshold. *)
  Helpers.qtest ~count:25 "rate scaling: every registry row scales exactly"
    QCheck2.Gen.(pair (int_range 0 100_000) (int_range (-3) 3))
    (fun (seed, k) ->
      let inst = Helpers.random_instance ~n_max:8 ~p_max:4 seed in
      let factor = 2. ** Float.of_int k in
      let scaled =
        Instance.make inst.Instance.app
          (Transform.scale_rates ~factor inst.Instance.platform)
      in
      List.for_all
        (fun (info : Ureg.info) ->
          let threshold = row_threshold info inst in
          outcomes_equal ~factor
            (info.Ureg.solve inst ~threshold)
            (info.Ureg.solve scaled ~threshold:(threshold /. factor)))
        Ureg.all)

let prop_scale_rates_scales_het_rows =
  (* The same law on fully heterogeneous platforms (the Het rows are
     the ones that accept them). *)
  Helpers.qtest ~count:25 "rate scaling: het rows scale exactly on het"
    QCheck2.Gen.(pair (int_range 0 100_000) (int_range (-3) 3))
    (fun (seed, k) ->
      let inst = Helpers.random_het_instance ~n_max:8 ~p_max:4 seed in
      let factor = 2. ** Float.of_int k in
      let scaled =
        Instance.make inst.Instance.app
          (Transform.scale_rates ~factor inst.Instance.platform)
      in
      List.for_all
        (fun (info : Ureg.info) ->
          let threshold = row_threshold info inst in
          outcomes_equal ~factor
            (info.Ureg.solve inst ~threshold)
            (info.Ureg.solve scaled ~threshold:(threshold /. factor)))
        Ureg.het)

let prop_drop_comm_collapses_to_comm_hom =
  (* With zero-size messages every comm term is exactly 0/b = 0, so the
     fully-het platform and any comm-homogenisation of it are the same
     cost model bit-for-bit. Checked three ways: (a) Cost of a random
     mapping agree on the het twin and the hom twin; (b) the candidate
     sets coincide; (c) end-to-end, the het-capable registry rows return
     identical outcomes on both twins, and every registry row — all
     stacks — is bandwidth-independent on the hom twin (two different
     homogenisation bandwidths, bit-identical outcomes). *)
  Helpers.qtest ~count:20 "drop_comm: fully-het collapses to comm-hom"
    (QCheck2.Gen.int_range 0 100_000)
    (fun seed ->
      let inst0 = Helpers.random_het_instance ~n_max:7 ~p_max:4 seed in
      let app = Transform.drop_comm inst0.Instance.app in
      let het = Instance.make app inst0.Instance.platform in
      let hom b =
        Instance.make app
          (Transform.comm_homogenise ~bandwidth:b inst0.Instance.platform)
      in
      let hom10 = hom 10. and hom3 = hom 3. in
      let rng = Pipeline_util.Rng.create (seed + 23) in
      let n = Application.n app and p = Platform.p inst0.Instance.platform in
      let m = 1 + Pipeline_util.Rng.int rng (min n p) in
      let cuts =
        if m = 1 then []
        else begin
          let positions = Array.init (n - 1) (fun i -> i + 1) in
          Pipeline_util.Rng.shuffle rng positions;
          List.sort compare (Array.to_list (Array.sub positions 0 (m - 1)))
        end
      in
      let procs =
        Array.to_list (Array.sub (Pipeline_util.Rng.permutation rng p) 0 m)
      in
      let mapping = Mapping.of_cuts ~n ~cuts ~procs in
      let summary (i : Instance.t) =
        Cost.summary (Cost.get i.Instance.app i.Instance.platform) mapping
      in
      let a = summary het and b = summary hom10 in
      let same_outcome (x : Ureg.outcome option) (y : Ureg.outcome option) =
        match (x, y) with
        | None, None -> true
        | Some x, Some y ->
          x.Ureg.period = y.Ureg.period
          && x.Ureg.latency = y.Ureg.latency
          && Deal_mapping.to_string x.Ureg.mapping
             = Deal_mapping.to_string y.Ureg.mapping
        | _ -> false
      in
      a.Cost.period = b.Cost.period
      && a.Cost.latency = b.Cost.latency
      && Candidates.periods (Cost.get het.Instance.app het.Instance.platform)
         = Candidates.periods
             (Cost.get hom10.Instance.app hom10.Instance.platform)
      && List.for_all
           (fun (info : Ureg.info) ->
             let threshold = row_threshold info het in
             same_outcome
               (info.Ureg.solve het ~threshold)
               (info.Ureg.solve hom10 ~threshold))
           Ureg.het
      && List.for_all
           (fun (info : Ureg.info) ->
             let threshold = row_threshold info hom10 in
             same_outcome
               (info.Ureg.solve hom10 ~threshold)
               (info.Ureg.solve hom3 ~threshold))
           Ureg.all)

(* ------------------------------------------------------------------ *)
(* Cost engine vs the pre-engine arithmetic                            *)
(* ------------------------------------------------------------------ *)

(* Reference implementations: verbatim copies of the metric code as it
   stood before the Cost engine (Metrics / Deal_metrics /
   Deal_reliability each computing equations (1)-(2) inline). The
   engine's contract is bit-identity, so every comparison below uses
   (=), never a tolerance. *)
module Ref = struct
  let in_bandwidth platform mapping j =
    if j = 0 then Platform.io_bandwidth platform (Mapping.proc mapping 0)
    else
      Platform.bandwidth platform
        (Mapping.proc mapping (j - 1))
        (Mapping.proc mapping j)

  let out_bandwidth platform mapping j =
    let m = Mapping.m mapping in
    if j = m - 1 then Platform.io_bandwidth platform (Mapping.proc mapping j)
    else
      Platform.bandwidth platform (Mapping.proc mapping j)
        (Mapping.proc mapping (j + 1))

  let cycle_time app platform mapping j =
    let iv = Mapping.interval mapping j in
    let u = Mapping.proc mapping j in
    let d = Interval.first iv and e = Interval.last iv in
    Application.delta app (d - 1) /. in_bandwidth platform mapping j
    +. (Application.work_sum app d e /. Platform.speed platform u)
    +. (Application.delta app e /. out_bandwidth platform mapping j)

  let period app platform mapping =
    let worst = ref neg_infinity in
    for j = 0 to Mapping.m mapping - 1 do
      worst := Float.max !worst (cycle_time app platform mapping j)
    done;
    !worst

  let latency app platform mapping =
    let m = Mapping.m mapping in
    let total = ref 0. in
    for j = 0 to m - 1 do
      let iv = Mapping.interval mapping j in
      let u = Mapping.proc mapping j in
      let d = Interval.first iv and e = Interval.last iv in
      total :=
        !total
        +. (Application.delta app (d - 1) /. in_bandwidth platform mapping j)
        +. (Application.work_sum app d e /. Platform.speed platform u)
    done;
    let n = Application.n app in
    !total +. (Application.delta app n /. out_bandwidth platform mapping (m - 1))

  let deal_cycle (inst : Instance.t) b mapping ~j ~u =
    let iv = Deal_mapping.interval mapping j in
    let d = Interval.first iv and e = Interval.last iv in
    (Application.delta inst.app (d - 1) /. b)
    +. (Application.work_sum inst.app d e /. Platform.speed inst.platform u)
    +. (Application.delta inst.app e /. b)

  let fold_intervals (inst : Instance.t) mapping f init =
    let b = Platform.io_bandwidth inst.platform 0 in
    let acc = ref init in
    for j = 0 to Deal_mapping.m mapping - 1 do
      let cycles =
        List.map
          (fun u -> deal_cycle inst b mapping ~j ~u)
          (Deal_mapping.replicas mapping j)
      in
      acc := f !acc j cycles
    done;
    !acc

  let deal_period inst mapping =
    fold_intervals inst mapping
      (fun acc j cycles ->
        let r = float_of_int (Deal_mapping.replication mapping j) in
        let worst = List.fold_left Float.max neg_infinity cycles in
        Float.max acc (worst /. r))
      neg_infinity

  let deal_period_weighted inst mapping =
    fold_intervals inst mapping
      (fun acc _j cycles ->
        let rate = List.fold_left (fun s c -> s +. (1. /. c)) 0. cycles in
        Float.max acc (1. /. rate))
      neg_infinity

  let deal_latency (inst : Instance.t) mapping =
    let b = Platform.io_bandwidth inst.platform 0 in
    let app = inst.app in
    let total =
      fold_intervals inst mapping
        (fun acc j cycles ->
          let iv = Deal_mapping.interval mapping j in
          let out = Application.delta app (Interval.last iv) /. b in
          let worst = List.fold_left Float.max neg_infinity cycles in
          acc +. (worst -. out))
        0.
    in
    total +. (Application.delta app (Application.n app) /. b)

  let failure rel deal =
    let survive_all = ref 1. in
    for j = 0 to Deal_mapping.m deal - 1 do
      survive_all :=
        !survive_all
        *. (1. -. Reliability.group_failure rel (Deal_mapping.replicas deal j))
    done;
    1. -. !survive_all
end

(* A random mapping of [inst] (1 to min(n,p) intervals). *)
let random_mapping rng (inst : Instance.t) =
  let n = Application.n inst.Instance.app in
  let p = Platform.p inst.Instance.platform in
  let m = 1 + Pipeline_util.Rng.int rng (min n p) in
  let cuts =
    if m = 1 then []
    else begin
      let positions = Array.init (n - 1) (fun i -> i + 1) in
      Pipeline_util.Rng.shuffle rng positions;
      List.sort compare (Array.to_list (Array.sub positions 0 (m - 1)))
    end
  in
  let procs = Array.to_list (Array.sub (Pipeline_util.Rng.permutation rng p) 0 m) in
  Mapping.of_cuts ~n ~cuts ~procs

(* A random deal mapping: a random plain mapping with the spare
   processors dealt to random intervals as extra replicas. *)
let random_deal_mapping rng (inst : Instance.t) =
  let plain = random_mapping rng inst in
  let p = Platform.p inst.Instance.platform in
  let deal = ref (Deal_mapping.of_mapping plain) in
  for u = 0 to p - 1 do
    if (not (Mapping.uses plain u)) && Pipeline_util.Rng.int rng 2 = 0 then
      deal :=
        Deal_mapping.replicate !deal
          ~j:(Pipeline_util.Rng.int rng (Mapping.m plain))
          ~proc:u
  done;
  !deal

(* One random instance per platform kind: comm-homogeneous, fully
   homogeneous, fully heterogeneous. *)
let cost_instance kind_choice seed =
  let rng = Pipeline_util.Rng.create seed in
  match kind_choice mod 3 with
  | 0 -> Helpers.random_instance seed
  | 1 ->
    let n = 1 + Pipeline_util.Rng.int rng 10 in
    let p = 1 + Pipeline_util.Rng.int rng 6 in
    let works =
      Array.init n (fun _ -> float_of_int (Pipeline_util.Rng.int_in rng 1 20))
    in
    let deltas =
      Array.init (n + 1) (fun _ -> float_of_int (Pipeline_util.Rng.int_in rng 0 30))
    in
    let app = Application.make ~deltas works in
    let platform = Platform.fully_homogeneous ~speed:3. ~bandwidth:7. p in
    Instance.make ~seed app platform
  | _ ->
    let n = 1 + Pipeline_util.Rng.int rng 10 in
    let p = 1 + Pipeline_util.Rng.int rng 6 in
    let works =
      Array.init n (fun _ -> float_of_int (Pipeline_util.Rng.int_in rng 1 20))
    in
    let deltas =
      Array.init (n + 1) (fun _ -> float_of_int (Pipeline_util.Rng.int_in rng 0 30))
    in
    let app = Application.make ~deltas works in
    let platform = Platform_generator.fully_heterogeneous rng ~p in
    Instance.make ~seed app platform

let prop_cost_plain_matches_reference =
  Helpers.qtest ~count:200 "Cost == pre-engine Metrics, bitwise, all platform kinds"
    QCheck2.Gen.(pair (int_range 0 100_000) (int_range 0 3))
    (fun (seed, kind_choice) ->
      (* One case in four at web scale: an E6 ladder instance with
         1 000-50 000 stages on 64-1 000 processors, where Cost is the
         only other evaluator of equations (1)-(2). *)
      let inst =
        if kind_choice = 3 then begin
          let rng = Pipeline_util.Rng.create seed in
          let n = Pipeline_util.Rng.int_in rng 1_000 50_000 in
          Pipeline_experiments.Scaling.instance ~seed ~n
            ~p:(Pipeline_util.Rng.int_in rng 64 1_000)
        end
        else cost_instance kind_choice seed
      in
      let app = inst.Instance.app and platform = inst.Instance.platform in
      let rng = Pipeline_util.Rng.create (seed + 23) in
      let mapping = random_mapping rng inst in
      let check (cost : Cost.t) =
        Cost.period cost mapping = Ref.period app platform mapping
        && Cost.latency cost mapping = Ref.latency app platform mapping
        && (let s = Cost.summary cost mapping in
            s.Cost.period = Ref.period app platform mapping
            && s.Cost.latency = Ref.latency app platform mapping
            && s.Cost.intervals = Mapping.m mapping)
        && List.for_all
             (fun j ->
               Cost.cycle_time cost mapping j
               = Ref.cycle_time app platform mapping j)
             (List.init (Mapping.m mapping) Fun.id)
      in
      (* Private and shared engines must both reproduce the reference
         bits. The E6 case is past the cycle-table cap, so it checks the
         direct-evaluation path. *)
      check (Cost.make app platform) && check (Cost.get app platform))

let prop_cost_tables_bit_identical =
  (* The O(n + p) flat layout (work-sum prefix differences, din/dout
     tables, lazy cycle memo) vs a test-side evaluation in the engine's
     association, (δ_{d-1}/b + W(d,e)/s_u) + δ_e/b, on every (d, e, u)
     triple and every platform kind. Each cycle is read twice so both
     the miss and the hit path are compared. *)
  Helpers.qtest ~count:100 "flat tables = direct evaluation on every (d,e,u)"
    QCheck2.Gen.(pair (int_range 0 100_000) (int_range 0 2))
    (fun (seed, kind_choice) ->
      let inst = cost_instance kind_choice seed in
      let app = inst.Instance.app and platform = inst.Instance.platform in
      let cost = Cost.make app platform in
      let n = Application.n app and p = Platform.p platform in
      let comm_hom = Platform.is_comm_homogeneous platform in
      let b = Platform.io_bandwidth platform 0 in
      let din d = Application.delta app (d - 1) /. b in
      let dout e = Application.delta app e /. b in
      let compute d e u = Application.work_sum app d e /. Platform.speed platform u in
      let ok = ref true in
      for d = 1 to n do
        if comm_hom then begin
          ok := !ok && Cost.din cost ~d = din d;
          ok := !ok && Cost.dout cost ~e:d = dout d
        end;
        for e = d to n do
          ok := !ok && Cost.work_sum cost ~d ~e = Application.work_sum app d e;
          if comm_hom then
            for u = 0 to p - 1 do
              let cycle = din d +. compute d e u +. dout e in
              ok :=
                !ok
                && Cost.cycle cost ~d ~e ~u = cycle
                && Cost.cycle cost ~d ~e ~u = cycle
                && Cost.compute cost ~d ~e ~u = compute d e u
                && Cost.contrib cost ~d ~e ~u = din d +. compute d e u
            done
        done
      done;
      !ok)

let prop_cost_deal_matches_reference =
  Helpers.qtest ~count:200 "Cost deal layer == pre-engine Deal_metrics, bitwise"
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let inst = Helpers.random_instance seed in
      let rng = Pipeline_util.Rng.create (seed + 29) in
      let deal = random_deal_mapping rng inst in
      let check (cost : Cost.t) =
        Cost.deal_period cost deal = Ref.deal_period inst deal
        && Cost.deal_period_weighted cost deal
           = Ref.deal_period_weighted inst deal
        && Cost.deal_latency cost deal = Ref.deal_latency inst deal
        &&
        let s = Cost.deal_summary cost deal in
        s.Cost.period = Ref.deal_period inst deal
        && s.Cost.latency = Ref.deal_latency inst deal
      in
      check (Cost.get inst.Instance.app inst.Instance.platform))

let prop_cost_failure_matches_reference =
  Helpers.qtest ~count:200 "Cost reliability layer == pre-engine Deal_reliability"
    QCheck2.Gen.(pair (int_range 0 100_000) (float_range 0.01 0.5))
    (fun (seed, prob) ->
      let inst = Helpers.random_instance seed in
      let rng = Pipeline_util.Rng.create (seed + 31) in
      let deal = random_deal_mapping rng inst in
      let rel = Reliability.uniform ~p:(Platform.p inst.Instance.platform) prob in
      Cost.failure rel deal = Ref.failure rel deal
      && List.for_all
           (fun j ->
             Cost.interval_failure rel deal ~j
             = Reliability.group_failure rel (Deal_mapping.replicas deal j))
           (List.init (Deal_mapping.m deal) Fun.id))

(* Cost.get's per-domain LRU is the one place shared engines live. It
   keys on physical equality of both arguments, which is why the serve
   cache hands solvers representative values. *)
let test_cost_get_physical_key () =
  let app = Helpers.small_app () and platform = Helpers.small_platform () in
  let s0 = Cost.cache_stats () in
  let e1 = Cost.get app platform in
  let e2 = Cost.get app platform in
  let copy = Cost.get (Helpers.small_app ()) platform in
  let s1 = Cost.cache_stats () in
  Alcotest.(check bool) "same values, same engine" true (e1 == e2);
  Alcotest.(check bool) "equal copy, own engine" false (e1 == copy);
  Alcotest.(check int) "two builds" 2 (s1.Cost.engine_builds - s0.Cost.engine_builds);
  Alcotest.(check int) "one hit" 1 (s1.Cost.lru_hits - s0.Cost.lru_hits);
  Alcotest.(check int) "two misses" 2 (s1.Cost.lru_misses - s0.Cost.lru_misses)

let test_cost_get_lru_capacity () =
  let platform = Helpers.small_platform () in
  let apps = Array.init 9 (fun _ -> Helpers.small_app ()) in
  let engines = Array.map (fun app -> Cost.get app platform) apps in
  (* The ninth build pushed out the first; the other eight still hit. *)
  let s0 = Cost.cache_stats () in
  for i = 1 to 8 do
    Alcotest.(check bool)
      (Printf.sprintf "engine %d still shared" i)
      true
      (Cost.get apps.(i) platform == engines.(i))
  done;
  let s1 = Cost.cache_stats () in
  Alcotest.(check int) "eight hits" 8 (s1.Cost.lru_hits - s0.Cost.lru_hits);
  Alcotest.(check bool) "oldest engine evicted" false
    (Cost.get apps.(0) platform == engines.(0))

let test_cost_make_private () =
  let app = Helpers.small_app () and platform = Helpers.small_platform () in
  let shared = Cost.get app platform in
  let s0 = Cost.cache_stats () in
  let own = Cost.make app platform in
  let s1 = Cost.cache_stats () in
  Alcotest.(check bool) "a fresh engine" false (own == shared);
  Alcotest.(check int) "one build" 1 (s1.Cost.engine_builds - s0.Cost.engine_builds);
  Alcotest.(check int) "LRU not consulted" 0
    (s1.Cost.lru_hits + s1.Cost.lru_misses - (s0.Cost.lru_hits + s0.Cost.lru_misses));
  Alcotest.(check bool) "get keeps the shared engine" true
    (Cost.get app platform == shared)

let () =
  Alcotest.run "model"
    [
      ( "application",
        [
          Alcotest.test_case "basics" `Quick test_app_basic;
          Alcotest.test_case "work_sum" `Quick test_app_work_sum;
          Alcotest.test_case "bad shapes" `Quick test_app_bad_shapes;
          Alcotest.test_case "rejects negative" `Quick test_app_rejects_negative;
          Alcotest.test_case "rejects nan" `Quick test_app_rejects_nan;
          Alcotest.test_case "uniform" `Quick test_app_uniform;
          Alcotest.test_case "of_stages" `Quick test_app_of_stages;
          Alcotest.test_case "labels" `Quick test_app_labels;
          Alcotest.test_case "out of range" `Quick test_app_out_of_range;
          Alcotest.test_case "defensive copies" `Quick test_app_copies_arrays;
          Alcotest.test_case "equal" `Quick test_app_equal;
          prop_work_sum_matches_naive;
        ] );
      ( "platform",
        [
          Alcotest.test_case "comm hom" `Quick test_platform_comm_hom;
          Alcotest.test_case "self bandwidth" `Quick
            test_platform_self_bandwidth_infinite;
          Alcotest.test_case "fully hom" `Quick test_platform_fully_homogeneous;
          Alcotest.test_case "fastest/order" `Quick test_platform_fastest_and_order;
          Alcotest.test_case "fully het" `Quick test_platform_het;
          Alcotest.test_case "asymmetric rejected" `Quick
            test_platform_het_asymmetric_rejected;
          Alcotest.test_case "bad speed" `Quick test_platform_rejects_bad_speed;
          Alcotest.test_case "custom io" `Quick test_platform_custom_io;
          Alcotest.test_case "restrict / with_speeds" `Quick test_platform_restrict;
        ] );
      ( "interval",
        [
          Alcotest.test_case "basics" `Quick test_interval_basics;
          Alcotest.test_case "bad" `Quick test_interval_bad;
          Alcotest.test_case "split" `Quick test_interval_split;
          Alcotest.test_case "split bad" `Quick test_interval_split_bad;
          Alcotest.test_case "partition_of" `Quick test_interval_partition_of;
        ] );
      ( "mapping",
        [
          Alcotest.test_case "make" `Quick test_mapping_make;
          Alcotest.test_case "bad partition" `Quick test_mapping_rejects_bad_partition;
          Alcotest.test_case "duplicate proc" `Quick test_mapping_rejects_duplicate_proc;
          Alcotest.test_case "single / one-to-one" `Quick
            test_mapping_single_and_one_to_one;
          Alcotest.test_case "of_cuts" `Quick test_mapping_of_cuts;
          Alcotest.test_case "replace" `Quick test_mapping_replace;
          Alcotest.test_case "replace bad tiling" `Quick test_mapping_replace_bad_tiling;
          Alcotest.test_case "interval_of_proc" `Quick test_mapping_interval_of_proc;
          Alcotest.test_case "valid_on" `Quick test_mapping_valid_on;
          Alcotest.test_case "renumber / migration" `Quick
            test_mapping_renumber_and_migration;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "single proc" `Quick test_metrics_single_proc;
          Alcotest.test_case "two intervals" `Quick test_metrics_two_intervals;
          Alcotest.test_case "summary" `Quick test_metrics_summary_consistent;
          Alcotest.test_case "heterogeneous links" `Quick test_metrics_het_uses_links;
          Alcotest.test_case "mismatch rejected" `Quick test_metrics_rejects_mismatch;
          Alcotest.test_case "zero deltas" `Quick test_metrics_zero_deltas;
          prop_one_interval_period_equals_latency;
          prop_period_at_most_latency_for_two_intervals;
        ] );
      ( "instance-io",
        [
          Alcotest.test_case "parse" `Quick test_io_parse;
          Alcotest.test_case "roundtrip comm-hom" `Quick test_io_roundtrip_comm_hom;
          Alcotest.test_case "roundtrip het" `Quick test_io_roundtrip_het;
          Alcotest.test_case "reports line" `Quick test_io_reports_line;
          Alcotest.test_case "unknown key" `Quick test_io_unknown_key;
          Alcotest.test_case "missing sections" `Quick test_io_missing_sections;
          Alcotest.test_case "het missing link" `Quick test_io_het_missing_link;
          Alcotest.test_case "shape mismatch" `Quick test_io_shape_mismatch;
          Alcotest.test_case "file roundtrip" `Quick test_io_file_roundtrip;
          Alcotest.test_case "missing file" `Quick test_io_load_missing_file;
          Alcotest.test_case "garbage and truncated files" `Quick
            test_io_garbage_and_truncated_files;
          prop_io_roundtrip_random;
        ] );
      ( "transform",
        [
          Alcotest.test_case "coarsen shapes" `Quick test_coarsen_shapes;
          prop_coarsen_preserves_metrics;
          Alcotest.test_case "coarse_solve lifts" `Quick test_coarse_solve_lifts;
          Alcotest.test_case "refine mismatch" `Quick test_refine_rejects_mismatch;
          Alcotest.test_case "scale" `Quick test_scale;
          Alcotest.test_case "scale_rates shapes" `Quick test_scale_rates_shapes;
          Alcotest.test_case "drop_comm / comm_homogenise" `Quick
            test_drop_comm_and_homogenise;
          prop_scale_rates_scales_every_row;
          prop_scale_rates_scales_het_rows;
          prop_drop_comm_collapses_to_comm_hom;
        ] );
      ( "skeleton",
        [
          Alcotest.test_case "compiles" `Quick test_skeleton_compiles;
          Alcotest.test_case "deal stages" `Quick test_skeleton_deal_stages;
          Alcotest.test_case "flattens" `Quick test_skeleton_flattens;
          Alcotest.test_case "pp/roundtrip" `Quick test_skeleton_pp_and_roundtrip;
          Alcotest.test_case "empty rejected" `Quick test_skeleton_empty_rejected;
        ] );
      ( "mapping-io",
        [
          Alcotest.test_case "to_string" `Quick test_mapping_io_to_string;
          Alcotest.test_case "parse" `Quick test_mapping_io_parse;
          Alcotest.test_case "errors" `Quick test_mapping_io_errors;
          Alcotest.test_case "garbage tokens" `Quick test_mapping_io_garbage;
          prop_mapping_io_roundtrip;
        ] );
      ( "generators",
        [
          Alcotest.test_case "E1" `Quick test_app_generator_e1;
          Alcotest.test_case "E2 ranges" `Quick test_app_generator_e2_ranges;
          Alcotest.test_case "E3 ranges" `Quick test_app_generator_e3_ranges;
          Alcotest.test_case "E4 fractional" `Quick test_app_generator_e4_fractional;
          Alcotest.test_case "E6 web scale" `Quick test_app_generator_e6;
          Alcotest.test_case "platform web scale" `Quick
            test_platform_generator_web_scale;
          Alcotest.test_case "platform ranges" `Quick test_platform_generator_ranges;
          Alcotest.test_case "platform het" `Quick test_platform_generator_het;
          Alcotest.test_case "instance helpers" `Quick test_instance_helpers;
        ] );
      ( "cost-engine",
        [
          prop_cost_plain_matches_reference;
          prop_cost_tables_bit_identical;
          prop_cost_deal_matches_reference;
          prop_cost_failure_matches_reference;
          Alcotest.test_case "get keys on physical equality" `Quick
            test_cost_get_physical_key;
          Alcotest.test_case "get keeps 8 engines" `Quick test_cost_get_lru_capacity;
          Alcotest.test_case "make builds outside the LRU" `Quick test_cost_make_private;
        ] );
    ]
