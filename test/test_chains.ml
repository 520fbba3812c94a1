open Chains

let gen_chain = QCheck2.Gen.(list_size (int_range 1 25) (float_range 0. 20.))

(* ------------------------------------------------------------------ *)
(* Prefix                                                              *)
(* ------------------------------------------------------------------ *)

let test_prefix_sums () =
  let p = Prefix.make [| 1.; 2.; 3.; 4. |] in
  Alcotest.(check int) "n" 4 (Prefix.n p);
  Helpers.check_float "element" 3. (Prefix.element p 3);
  Helpers.check_float "sum all" 10. (Prefix.sum p 1 4);
  Helpers.check_float "sum mid" 5. (Prefix.sum p 2 3);
  Helpers.check_float "empty" 0. (Prefix.sum p 3 2);
  Helpers.check_float "total" 10. (Prefix.total p);
  Helpers.check_float "max element" 4. (Prefix.max_from p 1)

let test_prefix_rejects () =
  Alcotest.check_raises "empty" (Invalid_argument "Prefix.make: empty chain")
    (fun () -> ignore (Prefix.make [||]));
  Alcotest.check_raises "negative"
    (Invalid_argument "Prefix.make: elements must be finite and >= 0") (fun () ->
      ignore (Prefix.make [| 1.; -2. |]))

let test_longest_fitting () =
  let p = Prefix.make [| 3.; 1.; 4.; 1.; 5. |] in
  Alcotest.(check int) "budget 4 from 1: [3,1]" 2
    (Prefix.longest_fitting p ~from:1 ~budget:4.);
  Alcotest.(check int) "budget 2 from 1: nothing" 0
    (Prefix.longest_fitting p ~from:1 ~budget:2.);
  Alcotest.(check int) "budget 100 from 2: rest" 5
    (Prefix.longest_fitting p ~from:2 ~budget:100.);
  Alcotest.(check int) "exact fit" 3 (Prefix.longest_fitting p ~from:1 ~budget:8.)

let test_longest_fitting_zeros () =
  let p = Prefix.make [| 0.; 0.; 5. |] in
  Alcotest.(check int) "zeros fit in zero budget" 2
    (Prefix.longest_fitting p ~from:1 ~budget:0.)

let prop_longest_fitting_correct =
  Helpers.qtest "longest_fitting is maximal and fits"
    QCheck2.Gen.(pair gen_chain (float_range 0. 50.))
    (fun (xs, budget) ->
      let a = Array.of_list xs in
      let p = Prefix.make a in
      let e = Prefix.longest_fitting p ~from:1 ~budget in
      let fits = e = 0 || Prefix.sum p 1 e <= budget +. 1e-9 in
      let maximal = e = Prefix.n p || Prefix.sum p 1 (e + 1) > budget -. 1e-9 in
      fits && maximal)

(* ------------------------------------------------------------------ *)
(* Partition                                                           *)
(* ------------------------------------------------------------------ *)

let test_partition_of_cuts () =
  let part = Partition.of_cuts ~n:5 [ 2; 3 ] in
  Alcotest.(check int) "size" 3 (Partition.size part);
  Alcotest.(check bool) "valid" true (Partition.is_valid ~n:5 part);
  Alcotest.(check (list int)) "cuts roundtrip" [ 2; 3 ] (Partition.cuts part)

let test_partition_loads () =
  let p = Prefix.make [| 1.; 2.; 3.; 4. |] in
  let part = Partition.of_cuts ~n:4 [ 2 ] in
  Alcotest.(check (array (float 1e-9))) "loads" [| 3.; 7. |] (Partition.loads p part);
  Helpers.check_float "bottleneck" 7. (Partition.bottleneck p part);
  Helpers.check_float "weighted" 3.5
    (Partition.weighted_bottleneck p ~speeds:[| 1.; 2. |] part)

let test_partition_bad_cut () =
  Alcotest.check_raises "cut = n" (Invalid_argument "Partition.of_cuts: bad cut")
    (fun () -> ignore (Partition.of_cuts ~n:3 [ 3 ]))

(* ------------------------------------------------------------------ *)
(* Probe                                                               *)
(* ------------------------------------------------------------------ *)

let test_probe_feasible () =
  let p = Prefix.make [| 2.; 2.; 2.; 2. |] in
  Alcotest.(check bool) "4 in 2 parts of 4" true (Probe.feasible p ~p:2 ~bound:4.);
  Alcotest.(check bool) "4 in 2 parts of 3" false (Probe.feasible p ~p:2 ~bound:3.);
  Alcotest.(check bool) "single big element" false (Probe.feasible p ~p:4 ~bound:1.)

let test_probe_partition_witness () =
  let p = Prefix.make [| 2.; 2.; 2.; 2. |] in
  match Probe.partition p ~p:2 ~bound:4. with
  | None -> Alcotest.fail "expected partition"
  | Some part ->
    Alcotest.(check bool) "valid" true (Partition.is_valid ~n:4 part);
    Alcotest.(check bool) "meets bound" true (Partition.bottleneck p part <= 4.)

let test_probe_min_intervals () =
  let p = Prefix.make [| 2.; 2.; 2.; 2. |] in
  Alcotest.(check (option int)) "needs 2" (Some 2) (Probe.min_intervals p ~bound:4.);
  Alcotest.(check (option int)) "needs 4" (Some 4) (Probe.min_intervals p ~bound:2.);
  Alcotest.(check (option int)) "impossible" None (Probe.min_intervals p ~bound:1.)

let prop_max_from_equals_linear_scan =
  (* The O(1) suffix-max table vs rescanning the tail: Float.max over
     finite non-negative elements selects the same value whatever the
     fold order, so equality is exact. *)
  Helpers.qtest "max_from = linear tail scan, bitwise" gen_chain (fun xs ->
      let a = Array.of_list xs in
      let p = Prefix.make a in
      let n = Prefix.n p in
      let ok = ref true in
      for k = 1 to n do
        let m = ref 0. in
        for i = k to n do
          m := Float.max !m (Prefix.element p i)
        done;
        ok := !ok && Prefix.max_from p k = !m
      done;
      !ok)

let prop_capped_probe_equals_uncapped =
  (* The O(cap log n) early-abort walk is observably identical to the
     pre-rewrite probe, which counted all intervals and compared after
     the fact. *)
  Helpers.qtest "capped min_intervals = uncapped, then compared"
    QCheck2.Gen.(triple gen_chain (int_range 1 8) (float_range 0. 60.))
    (fun (xs, cap, bound) ->
      let prefix = Prefix.make (Array.of_list xs) in
      let capped = Probe.min_intervals ~cap prefix ~bound in
      match Probe.min_intervals prefix ~bound with
      | None -> capped = None
      | Some k -> capped = if k <= cap then Some k else None)

let prop_feasible_agrees_with_min_intervals =
  Helpers.qtest "feasible p <=> min_intervals <= p"
    QCheck2.Gen.(triple gen_chain (int_range 1 8) (float_range 0. 60.))
    (fun (xs, p, bound) ->
      let prefix = Prefix.make (Array.of_list xs) in
      Probe.feasible prefix ~p ~bound
      = (match Probe.min_intervals prefix ~bound with
        | Some k -> k <= p
        | None -> false))

let prop_probe_consistent_with_dp =
  Helpers.qtest "probe feasibility agrees with DP optimum"
    QCheck2.Gen.(pair gen_chain (int_range 1 6))
    (fun (xs, p) ->
      let a = Array.of_list xs in
      let opt, _ = Dp.solve a ~p in
      let prefix = Prefix.make a in
      Probe.feasible prefix ~p ~bound:opt
      && ((not (Probe.feasible prefix ~p ~bound:(opt *. 0.99 -. 1e-6)))
         || opt = 0.))

(* ------------------------------------------------------------------ *)
(* Dp, Nicol and the unit-speed subset DP                              *)
(* ------------------------------------------------------------------ *)

let test_dp_known_instance () =
  (* [1,2,3,4,5] in 3 parts: optimal bottleneck 6 = [1,2,3][4][5] or
     [1,2,3][4,5]... loads: 6,4,5 -> 6. *)
  let opt, part = Dp.solve [| 1.; 2.; 3.; 4.; 5. |] ~p:3 in
  Helpers.check_float "optimum" 6. opt;
  Alcotest.(check bool) "valid" true (Partition.is_valid ~n:5 part);
  let prefix = Prefix.make [| 1.; 2.; 3.; 4.; 5. |] in
  Helpers.check_float "achieved" 6. (Partition.bottleneck prefix part)

let test_dp_single_interval () =
  let opt, part = Dp.solve [| 5.; 5. |] ~p:1 in
  Helpers.check_float "total" 10. opt;
  Alcotest.(check int) "one interval" 1 (Partition.size part)

let test_dp_more_procs_than_elements () =
  let opt, part = Dp.solve [| 4.; 7.; 2. |] ~p:10 in
  Helpers.check_float "max element" 7. opt;
  Alcotest.(check int) "three intervals" 3 (Partition.size part)

let test_subset_dp_known_instance () =
  (* The known instance above on three unit speeds: the subset DP reaches
     the same optimum 6 with [1,2,3][4][5]. The processors are alike, so
     the first strict improvement picks the witness: the last interval
     is tried on processor 0 first and keeps it. *)
  let sol = Hetero.exact_dp [| 1.; 2.; 3.; 4.; 5. |] ~speeds:[| 1.; 1.; 1. |] in
  Helpers.check_float "optimum" 6. sol.Hetero.bottleneck;
  Alcotest.(check (list int)) "cuts" [ 3; 4 ] (Partition.cuts sol.Hetero.partition);
  Alcotest.(check (array int)) "processors" [| 2; 1; 0 |] sol.Hetero.assignment

let prop_unit_speeds_equal_dp =
  (* With every speed at 1.0 each interval costs [Prefix.sum d e /. 1.],
     the sum itself, and the processors are interchangeable: the subset
     DP solves the homogeneous problem and must reach Dp's optimum, bit
     for bit. *)
  Helpers.qtest "unit speeds: subset DP = DP bitwise"
    QCheck2.Gen.(pair gen_chain (int_range 1 6))
    (fun (xs, p) ->
      let a = Array.of_list xs in
      let dp_opt, _ = Dp.solve a ~p in
      let sol = Hetero.exact_dp a ~speeds:(Array.make p 1.) in
      Int64.bits_of_float sol.Hetero.bottleneck = Int64.bits_of_float dp_opt)

let prop_nicol_bitwise_dp =
  (* Dp and Nicol both return the largest of some partition's
     [Prefix.sum] values, and on prefix-difference sums the greedy probe
     behind Nicol is exact, so the two optima agree bit for bit. *)
  Helpers.qtest "Nicol = DP, bit for bit"
    QCheck2.Gen.(pair gen_chain (int_range 1 8))
    (fun (xs, p) ->
      let a = Array.of_list xs in
      Int64.bits_of_float (fst (Dp.solve a ~p))
      = Int64.bits_of_float (fst (Nicol.solve a ~p)))

let prop_nicol_equals_dp =
  Helpers.qtest "Nicol's algorithm agrees with the DP"
    QCheck2.Gen.(pair gen_chain (int_range 1 8))
    (fun (xs, p) ->
      let a = Array.of_list xs in
      let n = Array.length a in
      let dp_opt, _ = Dp.solve a ~p in
      let ni_opt, ni_part = Nicol.solve a ~p in
      let prefix = Prefix.make a in
      Helpers.feq ~eps:1e-9 dp_opt ni_opt
      && Partition.is_valid ~n ni_part
      && Partition.size ni_part <= p
      && Partition.bottleneck prefix ni_part <= ni_opt +. 1e-9)

let test_nicol_known () =
  let opt, _ = Nicol.solve [| 1.; 2.; 3.; 4.; 5. |] ~p:3 in
  Helpers.check_float "optimum" 6. opt

let prop_dp_respects_interval_budget =
  Helpers.qtest "DP uses at most p intervals"
    QCheck2.Gen.(pair gen_chain (int_range 1 8))
    (fun (xs, p) ->
      let a = Array.of_list xs in
      let _, part = Dp.solve a ~p in
      Partition.size part <= p)

(* ------------------------------------------------------------------ *)
(* Hetero                                                              *)
(* ------------------------------------------------------------------ *)

let gen_hetero =
  QCheck2.Gen.(
    pair
      (list_size (int_range 1 10) (float_range 0.5 20.))
      (list_size (int_range 1 5) (float_range 1. 10.)))

let test_hetero_exact_known () =
  (* tasks [6,6], speeds [2,1]: best = [6][6] with speeds (2,1)? loads
     3 and 6 -> 6; speeds (1,2): 6 and 3 -> 6; single interval on 2: 6.
     optimum 6. *)
  let sol = Hetero.exact_dp [| 6.; 6. |] ~speeds:[| 2.; 1. |] in
  Helpers.check_float "optimum" 6. sol.Hetero.bottleneck

let test_hetero_exact_prefers_matching_speeds () =
  (* tasks [8,1,1], speeds [8,2]: [8] on 8 (load 1), [1,1] on 2 (load 1)
     -> optimum 1. *)
  let sol = Hetero.exact_dp [| 8.; 1.; 1. |] ~speeds:[| 8.; 2. |] in
  Helpers.check_float "perfect balance" 1. sol.Hetero.bottleneck;
  Alcotest.(check bool) "valid" true
    (Hetero.is_valid ~n:3 ~speeds:[| 8.; 2. |] sol)

let prop_hetero_exact_matches_exhaustive =
  Helpers.qtest ~count:40 "subset DP = exhaustive (via Theorem-2 bridge)"
    gen_hetero
    (fun (tasks, speeds) ->
      let a = Array.of_list tasks and s = Array.of_list speeds in
      let sol = Hetero.exact_dp a ~speeds:s in
      let inst = To_mapping.instance_of_hetero a ~speeds:s in
      let best = Pipeline_optimal.Exhaustive.min_period inst in
      Helpers.feq ~eps:1e-9 sol.Hetero.bottleneck
        best.Pipeline_core.Solution.period
      && Hetero.is_valid ~n:(Array.length a) ~speeds:s sol
      && Helpers.feq (Hetero.objective a ~speeds:s sol) sol.Hetero.bottleneck)

(* The processor-subset DP as Hetero carried it privately before it
   called Subset_dp: the same table fill, in the same order, keeping the
   first strict improvement, and the same parent walk from the first
   best subset. Hetero.exact_dp must reproduce it bit for bit. *)
let reference_exact_dp a ~speeds =
  let prefix = Prefix.make a in
  let n = Prefix.n prefix and p = Array.length speeds in
  let size = 1 lsl p in
  let best = Array.make_matrix size (n + 1) infinity in
  let parent_cut = Array.make_matrix size (n + 1) (-1) in
  let parent_proc = Array.make_matrix size (n + 1) (-1) in
  best.(0).(0) <- 0.;
  for set = 1 to size - 1 do
    let count = ref 0 in
    for u = 0 to p - 1 do
      if set land (1 lsl u) <> 0 then incr count
    done;
    let intervals = !count in
    if intervals <= n then
      for k = intervals to n do
        for u = 0 to p - 1 do
          if set land (1 lsl u) <> 0 then begin
            let rest = set lxor (1 lsl u) in
            for i = intervals - 1 to k - 1 do
              let prev = best.(rest).(i) in
              if prev < infinity then begin
                let load = Prefix.sum prefix (i + 1) k /. speeds.(u) in
                let cost = Float.max prev load in
                if cost < best.(set).(k) then begin
                  best.(set).(k) <- cost;
                  parent_cut.(set).(k) <- i;
                  parent_proc.(set).(k) <- u
                end
              end
            done
          end
        done
      done
  done;
  let best_set = ref (-1) and best_val = ref infinity in
  for set = 1 to size - 1 do
    if best.(set).(n) < !best_val then begin
      best_val := best.(set).(n);
      best_set := set
    end
  done;
  let rec walk set k acc_iv acc_proc =
    if k = 0 then (acc_iv, acc_proc)
    else
      let i = parent_cut.(set).(k) and u = parent_proc.(set).(k) in
      let iv = Pipeline_model.Interval.make ~first:(i + 1) ~last:k in
      walk (set lxor (1 lsl u)) i (iv :: acc_iv) (u :: acc_proc)
  in
  let ivs, procs = walk !best_set n [] [] in
  (!best_val, Array.of_list ivs, Array.of_list procs)

let same_as_reference (tasks, speeds) =
  let a = Array.of_list tasks and s = Array.of_list speeds in
  let sol = Hetero.exact_dp a ~speeds:s in
  let bottleneck, partition, assignment = reference_exact_dp a ~speeds:s in
  Int64.bits_of_float sol.Hetero.bottleneck = Int64.bits_of_float bottleneck
  && sol.Hetero.partition = partition
  && sol.Hetero.assignment = assignment

let prop_hetero_exact_matches_reference =
  Helpers.qtest "exact_dp = reference DP, bitwise" gen_hetero
    same_as_reference

let prop_hetero_exact_matches_reference_ties =
  (* Small integer weights and speeds make equal bottlenecks common, so
     the tie rule (first strict improvement) decides the witness. *)
  Helpers.qtest "exact_dp = reference DP on ties"
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 10) (map float_of_int (int_range 1 5)))
        (list_size (int_range 1 6) (map float_of_int (int_range 1 3))))
    same_as_reference

let test_hetero_rejects_large_p () =
  Alcotest.check_raises "Subset_dp's wording"
    (Invalid_argument "Subset_dp: p must be <= 16 (got 17)") (fun () ->
      ignore (Hetero.exact_dp [| 1. |] ~speeds:(Array.make 17 1.)))

(* ------------------------------------------------------------------ *)
(* Reduction (Theorem 1 gadget)                                        *)
(* ------------------------------------------------------------------ *)

let sat_instance () =
  Reduction.make_nmwts ~xs:[| 1; 2 |] ~ys:[| 3; 4 |] ~zs:[| 5; 5 |]

let unsat_instance () =
  (* Balanced sums but no matching: 0 + {1,3} can never give {2,2}. *)
  Reduction.make_nmwts ~xs:[| 0; 0 |] ~ys:[| 1; 3 |] ~zs:[| 2; 2 |]

let test_nmwts_verify () =
  let t = sat_instance () in
  Alcotest.(check bool) "valid matching" true
    (Reduction.verify_matching t ~sigma1:[| 1; 0 |] ~sigma2:[| 0; 1 |]);
  Alcotest.(check bool) "invalid matching" false
    (Reduction.verify_matching t ~sigma1:[| 0; 1 |] ~sigma2:[| 0; 1 |]);
  Alcotest.(check bool) "not a permutation" false
    (Reduction.verify_matching t ~sigma1:[| 0; 0 |] ~sigma2:[| 0; 1 |])

let test_nmwts_brute () =
  (match Reduction.solve_nmwts_brute (sat_instance ()) with
  | Some (s1, s2) ->
    Alcotest.(check bool) "verified" true
      (Reduction.verify_matching (sat_instance ()) ~sigma1:s1 ~sigma2:s2)
  | None -> Alcotest.fail "satisfiable instance not solved");
  Alcotest.(check bool) "unsat" true
    (Reduction.solve_nmwts_brute (unsat_instance ()) = None)

let test_gadget_shape () =
  let t = sat_instance () in
  let tasks, speeds = Reduction.instance t in
  let m = Reduction.m_of t and bigm = Reduction.big_m t in
  Alcotest.(check int) "m" 2 m;
  Alcotest.(check int) "M" 5 bigm;
  Alcotest.(check int) "n = (M+3)m" ((bigm + 3) * m) (Array.length tasks);
  Alcotest.(check int) "p = 3m" (3 * m) (Array.length speeds);
  (* Spot checks from the proof: A_1 = B + x_1 = 11, C = 25, D = 35. *)
  Helpers.check_float "A1" 11. tasks.(0);
  Helpers.check_float "C" 25. tasks.(bigm + 1);
  Helpers.check_float "D" 35. tasks.(bigm + 2);
  Helpers.check_float "s1 = B + z1" 15. speeds.(0);
  Helpers.check_float "s_{m+1} = C + M - y1" 27. speeds.(m);
  Helpers.check_float "s_{2m+1} = D" 35. speeds.(2 * m)

let test_reduction_forward () =
  (* A matching gives a bottleneck-1 solution (proof, forward direction). *)
  let t = sat_instance () in
  let sol = Reduction.solution_of_matching t ~sigma1:[| 1; 0 |] ~sigma2:[| 0; 1 |] in
  let tasks, speeds = Reduction.instance t in
  Alcotest.(check bool) "valid" true
    (Hetero.is_valid ~n:(Array.length tasks) ~speeds sol);
  Helpers.check_float "bottleneck exactly 1" 1. sol.Hetero.bottleneck

let test_reduction_backward () =
  (* The optimal solution of the gadget has bottleneck 1 and a matching
     can be extracted from it (proof, converse direction). *)
  let t = sat_instance () in
  let tasks, speeds = Reduction.instance t in
  let sol = Hetero.exact_dp tasks ~speeds in
  Helpers.check_float "optimum is 1" 1. sol.Hetero.bottleneck;
  match Reduction.extract_matching t sol with
  | None -> Alcotest.fail "no matching extracted from a bottleneck-1 solution"
  | Some (s1, s2) ->
    Alcotest.(check bool) "verified" true
      (Reduction.verify_matching t ~sigma1:s1 ~sigma2:s2)

let test_reduction_unsat_gadget () =
  (* Unsatisfiable NMWTS -> the gadget optimum exceeds K = 1. *)
  let t = unsat_instance () in
  let tasks, speeds = Reduction.instance t in
  let sol = Hetero.exact_dp tasks ~speeds in
  Alcotest.(check bool) "bottleneck > 1" true (sol.Hetero.bottleneck > 1. +. 1e-9);
  Alcotest.(check bool) "no matching extracted" true
    (Reduction.extract_matching t sol = None)

let test_reduction_rejects_bad_shapes () =
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Reduction.make_nmwts: xs, ys, zs must share their length")
    (fun () -> ignore (Reduction.make_nmwts ~xs:[| 1 |] ~ys:[| 1; 2 |] ~zs:[| 1 |]))

(* ------------------------------------------------------------------ *)
(* To_mapping (Theorem 2 bridge)                                       *)
(* ------------------------------------------------------------------ *)

let test_to_mapping_period_equals_bottleneck () =
  let a = [| 3.; 5.; 2. |] and speeds = [| 2.; 1. |] in
  let inst = To_mapping.instance_of_hetero a ~speeds in
  let sol = Hetero.exact_dp a ~speeds in
  let mapping = To_mapping.mapping_of_solution sol in
  let period =
    Pipeline_model.Cost.(
      period (get inst.Pipeline_model.Instance.app inst.Pipeline_model.Instance.platform)
        mapping)
  in
  Helpers.check_float "period = weighted bottleneck" sol.Hetero.bottleneck period

let prop_to_mapping_roundtrip =
  Helpers.qtest ~count:40 "solution -> mapping -> solution roundtrip" gen_hetero
    (fun (tasks, speeds) ->
      let a = Array.of_list tasks and s = Array.of_list speeds in
      let sol = Hetero.exact_dp a ~speeds:s in
      let mapping = To_mapping.mapping_of_solution sol in
      let prefix = Prefix.make a in
      let back = To_mapping.solution_of_mapping prefix ~speeds:s mapping in
      Helpers.feq back.Hetero.bottleneck sol.Hetero.bottleneck
      && back.Hetero.assignment = sol.Hetero.assignment)

(* ------------------------------------------------------------------ *)
(* Bounds on the optimum                                               *)
(* ------------------------------------------------------------------ *)

let max_element prefix =
  List.fold_left
    (fun m k -> Float.max m (Prefix.element prefix k))
    0.
    (List.init (Prefix.n prefix) (fun i -> i + 1))

(* No partition into p intervals beats max (total / p, max element). *)
let lower_bound prefix ~p =
  Float.max (Prefix.total prefix /. float_of_int p) (max_element prefix)

let prop_bounds_bracket_optimum =
  (* The leftmost-greedy probe at [lower + max element] always succeeds:
     each closed interval plus the next element overflows the bound, so
     each holds more than [lower >= total / p] and at most p intervals
     are cut. Its witness is an upper bound within twice the lower. *)
  Helpers.qtest "lower <= optimum <= upper <= 2 lower"
    QCheck2.Gen.(pair gen_chain (int_range 1 8))
    (fun (xs, p) ->
      let a = Array.of_list xs in
      let prefix = Prefix.make a in
      let lo = lower_bound prefix ~p in
      let opt, _ = Dp.solve a ~p in
      match Probe.partition prefix ~p ~bound:(lo +. max_element prefix) with
      | None -> false
      | Some witness ->
        let hi = Partition.bottleneck prefix witness in
        Partition.size witness <= p
        && lo <= opt +. 1e-9
        && opt <= hi +. 1e-9
        && hi <= (2. *. lo) +. 1e-9)

let test_bounds_known () =
  let a = [| 4.; 4.; 4.; 4. |] in
  let prefix = Prefix.make a in
  Helpers.check_float "lower = total/p" 8. (lower_bound prefix ~p:2);
  (* An even split meets the lower bound, so every solver reaches it. *)
  Helpers.check_float "dp" 8. (fst (Dp.solve a ~p:2));
  Helpers.check_float "nicol" 8. (fst (Nicol.solve a ~p:2));
  match Probe.partition prefix ~p:2 ~bound:12. with
  | None -> Alcotest.fail "greedy at lower + max element must succeed"
  | Some witness ->
    let hi = Partition.bottleneck prefix witness in
    Alcotest.(check bool) "upper feasible bound" true (hi >= 8. && hi <= 16.)

let test_bounds_p_exceeds_n () =
  let a = [| 3.; 9. |] in
  let prefix = Prefix.make a in
  (* With p >= n the optimum is the max element. *)
  Helpers.check_float "lower = max element" 9. (lower_bound prefix ~p:5);
  List.iter
    (fun (name, solve) -> Helpers.check_float name 9. (fst (solve a ~p:5)))
    [ ("dp", Dp.solve); ("nicol", Nicol.solve) ]

let prop_optimum_is_candidate =
  (* The finite-candidate argument behind Nicol: the optimal bottleneck
     is one of the interval sums, bit for bit. *)
  Helpers.qtest "DP optimum is an interval sum"
    QCheck2.Gen.(pair gen_chain (int_range 1 8))
    (fun (xs, p) ->
      let a = Array.of_list xs in
      let opt, _ = Dp.solve a ~p in
      let prefix = Prefix.make a in
      let n = Prefix.n prefix in
      List.exists
        (fun d ->
          List.exists
            (fun e -> Prefix.sum prefix d e = opt)
            (List.init (n - d + 1) (( + ) d)))
        (List.init n succ))

let () =
  Alcotest.run "chains"
    [
      ( "prefix",
        [
          Alcotest.test_case "sums" `Quick test_prefix_sums;
          Alcotest.test_case "rejects" `Quick test_prefix_rejects;
          Alcotest.test_case "longest_fitting" `Quick test_longest_fitting;
          Alcotest.test_case "longest_fitting zeros" `Quick test_longest_fitting_zeros;
          prop_longest_fitting_correct;
          prop_max_from_equals_linear_scan;
        ] );
      ( "partition",
        [
          Alcotest.test_case "of_cuts" `Quick test_partition_of_cuts;
          Alcotest.test_case "loads" `Quick test_partition_loads;
          Alcotest.test_case "bad cut" `Quick test_partition_bad_cut;
        ] );
      ( "probe",
        [
          Alcotest.test_case "feasible" `Quick test_probe_feasible;
          Alcotest.test_case "witness" `Quick test_probe_partition_witness;
          Alcotest.test_case "min intervals" `Quick test_probe_min_intervals;
          prop_probe_consistent_with_dp;
          prop_capped_probe_equals_uncapped;
          prop_feasible_agrees_with_min_intervals;
        ] );
      ( "homogeneous",
        [
          Alcotest.test_case "dp known" `Quick test_dp_known_instance;
          Alcotest.test_case "dp single" `Quick test_dp_single_interval;
          Alcotest.test_case "dp p > n" `Quick test_dp_more_procs_than_elements;
          Alcotest.test_case "subset DP known" `Quick test_subset_dp_known_instance;
          prop_unit_speeds_equal_dp;
          prop_nicol_bitwise_dp;
          prop_nicol_equals_dp;
          Alcotest.test_case "nicol known" `Quick test_nicol_known;
          prop_dp_respects_interval_budget;
        ] );
      ( "bounds-approx",
        [
          prop_bounds_bracket_optimum;
          Alcotest.test_case "bounds known" `Quick test_bounds_known;
          Alcotest.test_case "bounds p > n" `Quick test_bounds_p_exceeds_n;
          prop_optimum_is_candidate;
        ] );
      ( "hetero",
        [
          Alcotest.test_case "exact known" `Quick test_hetero_exact_known;
          Alcotest.test_case "exact balance" `Quick
            test_hetero_exact_prefers_matching_speeds;
          Alcotest.test_case "rejects large p" `Quick test_hetero_rejects_large_p;
          prop_hetero_exact_matches_exhaustive;
          prop_hetero_exact_matches_reference;
          prop_hetero_exact_matches_reference_ties;
        ] );
      ( "reduction",
        [
          Alcotest.test_case "verify matching" `Quick test_nmwts_verify;
          Alcotest.test_case "brute force" `Quick test_nmwts_brute;
          Alcotest.test_case "gadget shape" `Quick test_gadget_shape;
          Alcotest.test_case "forward direction" `Quick test_reduction_forward;
          Alcotest.test_case "backward direction" `Quick test_reduction_backward;
          Alcotest.test_case "unsat gadget" `Quick test_reduction_unsat_gadget;
          Alcotest.test_case "bad shapes" `Quick test_reduction_rejects_bad_shapes;
        ] );
      ( "to_mapping",
        [
          Alcotest.test_case "period = bottleneck" `Quick
            test_to_mapping_period_equals_bottleneck;
          prop_to_mapping_roundtrip;
        ] );
    ]
