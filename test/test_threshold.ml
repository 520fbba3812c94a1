(* Threshold-soundness: the exact candidate search (DESIGN.md §9).

   Three layers: the candidate sets contain every achievable period
   (membership properties against random mappings and the exact
   oracles), Threshold.search returns the smallest feasible candidate
   (checked against brute-force scans of the same probe), and the
   adaptive bisection reproduces the legacy fixed-count loops
   bit-for-bit (Sp_bi_p old vs new). *)

open Pipeline_model
open Pipeline_core
module Registry = Pipeline_registry
module Failure = Pipeline_experiments.Failure

let gen_seed = QCheck2.Gen.int_range 0 100_000
let gen_small = QCheck2.Gen.map (Helpers.random_instance ~n_max:7 ~p_max:4) gen_seed
let gen_tiny = QCheck2.Gen.map (Helpers.random_instance ~n_max:5 ~p_max:4) gen_seed

let candidates_of inst =
  Candidates.periods (Cost.get inst.Instance.app inst.Instance.platform)

(* ------------------------------------------------------------------ *)
(* Candidates                                                          *)
(* ------------------------------------------------------------------ *)

let test_of_values () =
  let a = Candidates.of_values [ 3.; 1.; 2.; 1.; 3. ] in
  Alcotest.(check (array (float 0.))) "sorted, deduped" [| 1.; 2.; 3. |] a;
  Alcotest.check_raises "nan" (Invalid_argument "Candidates.of_values: NaN candidate")
    (fun () -> ignore (Candidates.of_values [ 1.; Float.nan ]))

let test_mem_ceiling () =
  let a = [| 1.; 3.; 5. |] in
  Alcotest.(check bool) "mem hit" true (Candidates.mem a 3.);
  Alcotest.(check bool) "mem miss" false (Candidates.mem a 2.);
  Alcotest.(check bool) "mem empty" false (Candidates.mem [||] 2.);
  Alcotest.(check (option (float 0.))) "ceiling between" (Some 3.)
    (Candidates.ceiling a 2.);
  Alcotest.(check (option (float 0.))) "ceiling exact" (Some 5.)
    (Candidates.ceiling a 5.);
  Alcotest.(check (option (float 0.))) "ceiling above" None (Candidates.ceiling a 6.);
  Alcotest.(check (option (float 0.))) "ceiling empty" None (Candidates.ceiling [||] 0.)

let test_cached_on_engine () =
  let inst = Helpers.small_instance () in
  let cost = Cost.get inst.Instance.app inst.Instance.platform in
  Alcotest.(check bool) "periods cached" true
    (Candidates.periods cost == Candidates.periods cost);
  Alcotest.(check bool) "deal cached" true
    (Candidates.deal_periods cost == Candidates.deal_periods cost)

let test_het_candidates () =
  (* Fully heterogeneous platforms build candidate sets too (DESIGN.md
     §13): sorted, deduplicated, and containing every mapping period. *)
  let bandwidths = [| [| 0.; 2.; 5. |]; [| 2.; 0.; 3. |]; [| 5.; 3.; 0. |] |] in
  let pl = Platform.fully_heterogeneous ~bandwidths [| 1.; 2.; 3. |] in
  let app = Application.uniform ~n:3 ~work:1. ~delta:1. in
  let cost = Cost.make app pl in
  let cands = Candidates.periods cost in
  Alcotest.(check bool) "non-empty" true (Array.length cands > 0);
  Alcotest.(check bool) "sorted strictly" true
    (Array.for_all Fun.id
       (Array.init
          (max 0 (Array.length cands - 1))
          (fun i -> cands.(i) < cands.(i + 1))));
  let mapping =
    Mapping.make ~n:3
      [ (Interval.make ~first:1 ~last:2, 0); (Interval.make ~first:3 ~last:3, 2) ]
  in
  Alcotest.(check bool) "mapping period is a member" true
    (Candidates.mem cands (Cost.period cost mapping))

(* A uniformly random interval mapping: its period must be a member of
   the candidate set, bit-for-bit. *)
let random_mapping rng (inst : Instance.t) =
  let n = Application.n inst.Instance.app in
  let p = Platform.p inst.Instance.platform in
  let k = 1 + Pipeline_util.Rng.int rng (min n p) in
  let procs = Array.init p Fun.id in
  for i = p - 1 downto 1 do
    let j = Pipeline_util.Rng.int rng (i + 1) in
    let t = procs.(i) in
    procs.(i) <- procs.(j);
    procs.(j) <- t
  done;
  let assignment = ref [] in
  let d = ref 1 in
  for j = 1 to k do
    let slack = n - !d - (k - j) in
    let last = if j = k then n else !d + Pipeline_util.Rng.int rng (slack + 1) in
    assignment := (Interval.make ~first:!d ~last, procs.(j - 1)) :: !assignment;
    d := last + 1
  done;
  Mapping.make ~n (List.rev !assignment)

let prop_period_is_candidate =
  Helpers.qtest ~count:200 "any mapping's period is a candidate" gen_small
    (fun inst ->
      let rng = Pipeline_util.Rng.create inst.Instance.seed in
      let sol = Solution.of_mapping inst (random_mapping rng inst) in
      Candidates.mem (candidates_of inst) sol.Solution.period)

let prop_optimal_period_is_candidate =
  Helpers.qtest ~count:60 "exact min period is a candidate" gen_small (fun inst ->
      Candidates.mem (candidates_of inst)
        (Pipeline_optimal.Bicriteria.min_period inst).Solution.period)

let prop_deal_optimum_is_candidate =
  Helpers.qtest ~count:25 "deal exhaustive optimum is a deal candidate" gen_tiny
    (fun inst ->
      let cands =
        Candidates.deal_periods (Cost.get inst.Instance.app inst.Instance.platform)
      in
      let sol = Pipeline_deal.Deal_exhaustive.min_period inst in
      Candidates.mem cands sol.Pipeline_deal.Deal_heuristic.period)

(* ------------------------------------------------------------------ *)
(* Threshold.search                                                    *)
(* ------------------------------------------------------------------ *)

let test_search_exact () =
  let candidates = Array.init 10 (fun i -> float_of_int (i + 1)) in
  let probes = ref 0 in
  let probe t =
    incr probes;
    if t >= 6.5 then Some t else None
  in
  match Threshold.search ~candidates ~probe () with
  | None -> Alcotest.fail "expected a threshold"
  | Some found ->
    Helpers.check_float "smallest feasible" 7. found.Threshold.threshold;
    Helpers.check_float "payload from the memo" 7. found.Threshold.payload;
    Alcotest.(check bool) "log-many probes" true (found.Threshold.probes <= 5);
    Alcotest.(check int) "probe count reported" !probes found.Threshold.probes

let test_search_infeasible () =
  Alcotest.(check bool) "top candidate fails -> None" true
    (Threshold.search ~candidates:[| 1.; 2. |] ~probe:(fun _ -> None) () = None);
  Alcotest.(check bool) "no candidates -> None" true
    (Threshold.search ~candidates:[||] ~probe:(fun _ -> Some ()) () = None)

let prop_search_matches_scan =
  (* Against a brute-force scan of the same monotone probe. *)
  Helpers.qtest ~count:100 "search = linear scan" gen_seed (fun seed ->
      let rng = Pipeline_util.Rng.create seed in
      let count = 1 + Pipeline_util.Rng.int rng 40 in
      let candidates =
        Candidates.of_values
          (List.init count (fun _ -> float_of_int (Pipeline_util.Rng.int_in rng 0 100)))
      in
      let cutoff = float_of_int (Pipeline_util.Rng.int_in rng 0 110) in
      let probe t = if t >= cutoff then Some t else None in
      let scan = Array.to_seq candidates |> Seq.filter (fun c -> c >= cutoff) in
      match (Threshold.search ~candidates ~probe (), scan ()) with
      | None, Seq.Nil -> true
      | Some found, Seq.Cons (smallest, _) ->
        found.Threshold.threshold = smallest && found.Threshold.payload = smallest
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Lazy candidate sets: the (d, e, u) lattice vs the materialised array *)
(* ------------------------------------------------------------------ *)

(* Uniform deltas force the lazy representation; [~max_materialised:0]
   makes even these tiny instances take the lattice path, so every prop
   compares the lattice sweeps against the full sorted array. *)
let gen_uniform =
  QCheck2.Gen.map
    (Helpers.random_uniform_delta_instance ~n_max:8 ~p_max:4)
    gen_seed

let lazy_and_materialised inst =
  let cost = Cost.get inst.Instance.app inst.Instance.platform in
  (Candidates.Set.of_engine ~max_materialised:0 cost, Candidates.periods cost)

let prop_lazy_set_extrema =
  Helpers.qtest ~count:200 "lazy min/max = array endpoints, bitwise" gen_uniform
    (fun inst ->
      let set, cands = lazy_and_materialised inst in
      let last = Array.length cands - 1 in
      Candidates.Set.is_lazy set
      && Candidates.Set.min_elt set = Some cands.(0)
      && Candidates.Set.max_elt set = Some cands.(last)
      && Candidates.Set.force set == cands)

(* Realistic sizes too: n <= 300 stages, up to 8 distinct speeds. *)
let gen_uniform_large =
  QCheck2.Gen.map
    (Helpers.random_uniform_delta_instance ~n_max:300 ~p_max:8)
    gen_seed

(* Every candidate of an array of at most 512 entries; larger arrays at
   an even stride that keeps both ends. Each one ulp either side as
   well, and values below the minimum and above the maximum. *)
let queried cands =
  let count = Array.length cands in
  let stride = max 1 (count / 512) in
  let sampled =
    List.init ((count + stride - 1) / stride) (fun i -> cands.(i * stride))
  in
  let around c = [ Float.pred c; c; Float.succ c ] in
  List.concat_map around (cands.(count - 1) :: sampled)
  @ [ -1.; 0.; Float.max_float; infinity; neg_infinity ]

let prop_lazy_floor_ceiling_mem =
  (* Queried at a random off-grid value plus the candidates and their
     neighbours, the lattice sweeps must return the very floats the
     array searches return (same membership, same sort order). *)
  Helpers.qtest ~count:200 "lazy floor/ceiling/mem = array searches"
    QCheck2.Gen.(
      pair
        (frequency [ (3, gen_uniform); (1, gen_uniform_large) ])
        (float_range 0. 400.))
    (fun (inst, v) ->
      let set, cands = lazy_and_materialised inst in
      List.for_all
        (fun q ->
          Candidates.Set.floor set q = Candidates.floor cands q
          && Candidates.Set.ceiling set q = Candidates.ceiling cands q
          && Candidates.Set.mem set q = Candidates.mem cands q)
        (v :: queried cands))

let prop_search_set_matches_search =
  Helpers.qtest ~count:200 "search_set on the lattice = search on the array"
    QCheck2.Gen.(pair gen_uniform (float_range 0. 300.))
    (fun (inst, cutoff) ->
      let set, cands = lazy_and_materialised inst in
      let probe t = if t >= cutoff then Some t else None in
      match
        (Threshold.search_set ~set ~probe (), Threshold.search ~candidates:cands ~probe ())
      with
      | None, None -> true
      | Some a, Some b ->
        a.Threshold.threshold = b.Threshold.threshold
        && a.Threshold.payload = b.Threshold.payload
      | _ -> false)

let prop_boundary_set_matches_boundary =
  Helpers.qtest ~count:200 "boundary_set on the lattice = scan for the boundary"
    QCheck2.Gen.(pair gen_uniform (float_range 0. 300.))
    (fun (inst, cutoff) ->
      let set, cands = lazy_and_materialised inst in
      let succeeds c = c >= cutoff in
      let scan = Array.to_seq cands |> Seq.filter succeeds in
      match (Threshold.boundary_set ~set ~succeeds (), scan ()) with
      | None, Seq.Nil -> true
      | Some t, Seq.Cons (smallest, _) -> t = smallest
      | _ -> false)

(* The lazy search as it stood before empty bisection rounds were
   skipped: one [Set.floor] per round. [search_set] must issue exactly
   this probe sequence. *)
let reference_search_set ~set ~probe =
  let probed = ref [] in
  let run v =
    probed := v :: !probed;
    probe v
  in
  let result =
    match (Candidates.Set.min_elt set, Candidates.Set.max_elt set) with
    | None, _ | _, None -> None
    | Some min_elt, Some max_elt -> (
      match run max_elt with
      | None -> None
      | Some top -> (
        if min_elt = max_elt then Some (max_elt, top)
        else
          match run min_elt with
          | Some payload -> Some (min_elt, payload)
          | None ->
            let bits = Int64.bits_of_float and value = Int64.float_of_bits in
            let lo = ref (bits min_elt) and hi = ref (bits max_elt) in
            let best = ref (max_elt, top) in
            while Int64.sub !hi !lo > 1L do
              let mid = Int64.add !lo (Int64.div (Int64.sub !hi !lo) 2L) in
              match Candidates.Set.floor set (value mid) with
              | None -> assert false
              | Some c ->
                if Int64.compare (bits c) !lo <= 0 then lo := mid
                else (
                  match run c with
                  | Some payload ->
                    best := (c, payload);
                    hi := bits c
                  | None -> lo := bits c)
            done;
            Some !best))
  in
  (result, List.rev !probed)

let gen_uniform_search =
  QCheck2.Gen.(
    pair
      (oneof
         [
           map (Helpers.random_uniform_delta_instance ~n_max:300 ~p_max:8) gen_seed;
           map (Helpers.random_uniform_delta_het_instance ~n_max:300 ~p_max:4) gen_seed;
         ])
      (float_range (-0.05) 1.1))

let prop_search_set_probes_unchanged =
  Helpers.qtest ~count:100 "search_set skips only empty rounds"
    gen_uniform_search (fun (inst, frac) ->
      let cost = Cost.get inst.Instance.app inst.Instance.platform in
      let set = Candidates.Set.of_engine ~max_materialised:0 cost in
      let lo = Option.get (Candidates.Set.min_elt set) in
      let hi = Option.get (Candidates.Set.max_elt set) in
      (* A monotone probe whose payload names the call that produced it. *)
      let cutoff = lo +. (frac *. (hi -. lo)) in
      let probe_log ~probed =
        let calls = ref 0 in
        fun t ->
          incr calls;
          probed := t :: !probed;
          if t >= cutoff then Some (t, !calls) else None
      in
      let reference, reference_probes =
        reference_search_set ~set ~probe:(probe_log ~probed:(ref []))
      in
      let probed = ref [] in
      let found = Threshold.search_set ~set ~probe:(probe_log ~probed) () in
      Candidates.Set.is_lazy set
      && List.rev !probed = reference_probes
      &&
      match (found, reference) with
      | None, None -> true
      | Some f, Some (threshold, payload) ->
        f.Threshold.threshold = threshold
        && f.Threshold.payload = payload
        && f.Threshold.probes = List.length reference_probes
      | _ -> false)

(* The sweeps allocate nothing but their answer: one floor and one
   ceiling over a 20 000-stage lattice stay within a few dozen words. A
   sweep that boxes its floats allocates megabytes. *)
let test_lazy_sweeps_allocation () =
  let inst = Pipeline_experiments.Scaling.instance ~seed:2007 ~n:20_000 ~p:400 in
  let cost = Cost.make inst.Instance.app inst.Instance.platform in
  let set = Candidates.Set.of_engine cost in
  Alcotest.(check bool) "past the cap, the set is lazy" true
    (Candidates.Set.is_lazy set);
  let v = 2. *. Option.get (Candidates.Set.min_elt set) in
  let before = Gc.minor_words () in
  let floor = Candidates.Set.floor set v in
  let ceiling = Candidates.Set.ceiling set v in
  let words = Gc.minor_words () -. before in
  if words > 32. then
    Alcotest.failf "one floor and one ceiling allocated %.0f words" words;
  match (floor, ceiling) with
  | Some f, Some c -> Alcotest.(check bool) "floor <= v <= ceiling" true (f <= v && v <= c)
  | _ -> Alcotest.fail "the lattice brackets a value inside its range"

(* ------------------------------------------------------------------ *)
(* Fully-het candidate sets: soundness of the config family            *)
(* ------------------------------------------------------------------ *)

let gen_het =
  QCheck2.Gen.map (Helpers.random_het_instance ~n_max:6 ~p_max:4) gen_seed

let gen_het_uniform =
  QCheck2.Gen.map
    (Helpers.random_uniform_delta_het_instance ~n_max:8 ~p_max:4)
    gen_seed

let prop_het_period_is_candidate =
  Helpers.qtest ~count:200 "het: any mapping's period is a candidate" gen_het
    (fun inst ->
      let rng = Pipeline_util.Rng.create inst.Instance.seed in
      let sol = Solution.of_mapping inst (random_mapping rng inst) in
      Candidates.mem (candidates_of inst) sol.Solution.period)

let prop_het_optimal_period_is_candidate =
  Helpers.qtest ~count:40 "het: exhaustive min period is a candidate" gen_het
    (fun inst ->
      Candidates.mem (candidates_of inst)
        (Pipeline_optimal.Exhaustive.min_period inst).Solution.period)

let prop_het_boundary_set_matches_scan =
  Helpers.qtest ~count:200 "het: boundary_set = linear scan"
    QCheck2.Gen.(pair gen_het (float_range 0. 300.))
    (fun (inst, cutoff) ->
      let cost = Cost.get inst.Instance.app inst.Instance.platform in
      let set = Candidates.Set.of_engine cost in
      let cands = candidates_of inst in
      let succeeds c = c >= cutoff in
      let scan = Array.to_seq cands |> Seq.filter succeeds in
      match (Threshold.boundary_set ~set ~succeeds (), scan ()) with
      | None, Seq.Nil -> true
      | Some t, Seq.Cons (smallest, _) -> t = smallest
      | _ -> false)

let prop_het_warm_equals_cold =
  (* The warm set (engine-cached array) and a cold rebuild on a fresh
     engine agree bit-for-bit, and re-asking the same engine returns the
     very same array (the Cost cache, not a re-enumeration). *)
  Helpers.qtest ~count:60 "het: warm set == cold set, bitwise" gen_het
    (fun inst ->
      let cost = Cost.get inst.Instance.app inst.Instance.platform in
      let warm = Candidates.Set.force (Candidates.Set.of_engine cost) in
      let again = Candidates.Set.force (Candidates.Set.of_engine cost) in
      let cold =
        Candidates.Set.force
          (Candidates.Set.of_engine
             (Cost.make inst.Instance.app inst.Instance.platform))
      in
      warm == again && warm = cold)

let prop_het_lazy_set_matches_array =
  (* Uniform deltas + [~max_materialised:0] force the lattice arm on the
     fully-het config family; its sweeps must agree with the array. *)
  Helpers.qtest ~count:200 "het lattice: floor/ceiling/mem = array"
    QCheck2.Gen.(pair gen_het_uniform (float_range 0. 400.))
    (fun (inst, v) ->
      let cost = Cost.get inst.Instance.app inst.Instance.platform in
      let set = Candidates.Set.of_engine ~max_materialised:0 cost in
      let cands = candidates_of inst in
      let last = Array.length cands - 1 in
      Candidates.Set.is_lazy set
      && Candidates.Set.min_elt set = Some cands.(0)
      && Candidates.Set.max_elt set = Some cands.(last)
      && List.for_all
           (fun q ->
             Candidates.Set.floor set q = Candidates.floor cands q
             && Candidates.Set.ceiling set q = Candidates.ceiling cands q
             && Candidates.Set.mem set q = Candidates.mem cands q)
           (v :: Array.to_list cands))

let prop_het_row_threshold_sound =
  (* End-to-end: the het registry rows' exact thresholds (as the fault
     campaign and Het_campaign compute them) are attained candidates,
     and no smaller candidate succeeds. *)
  Helpers.qtest ~count:6 "het rows: boundary attained, minimal"
    (QCheck2.Gen.map (Helpers.random_het_instance ~n_max:5 ~p_max:3) gen_seed)
    (fun inst ->
      let cands = candidates_of inst in
      List.for_all
        (fun (info : Registry.info) ->
          let t = Failure.instance_threshold info inst in
          let succeeds c = info.Registry.solve inst ~threshold:c <> None in
          Candidates.mem cands t && succeeds t
          && Array.for_all (fun c -> c >= t || not (succeeds c)) cands)
        (List.filter
           (fun (i : Registry.info) -> i.Registry.kind = Registry.Period_fixed)
           Registry.het))

(* ------------------------------------------------------------------ *)
(* Failure thresholds: exact boundary on the candidate grid            *)
(* ------------------------------------------------------------------ *)

let period_rows =
  List.filter
    (fun (i : Registry.info) -> i.Registry.kind = Registry.Period_fixed)
    Registry.paper

let prop_failure_threshold_sound =
  Helpers.qtest ~count:10 "boundary succeeds; no smaller candidate does"
    (QCheck2.Gen.map (Helpers.random_instance ~n_max:6 ~p_max:4) gen_seed)
    (fun inst ->
      let cands = candidates_of inst in
      List.for_all
        (fun (info : Registry.info) ->
          let t = Failure.instance_threshold info inst in
          let succeeds c = info.Registry.solve inst ~threshold:c <> None in
          Candidates.mem cands t && succeeds t
          && Array.for_all
               (fun c -> c >= t || not (succeeds c))
               cands)
        period_rows)

(* The widening bisection doubles its bracket top until a probe
   succeeds. Each top is probed once: a row that fails at the
   single-processor period is asked about it exactly one time. *)
let test_widening_probes_each_top_once () =
  let inst = Helpers.small_instance () in
  let single = Instance.single_proc_period inst in
  let h1 = List.hd Registry.paper in
  let probed = ref [] in
  let counting =
    {
      (List.hd Registry.ft) with
      Registry.id = "counting";
      reach = None;
      solve =
        (fun inst ~threshold ->
          probed := threshold :: !probed;
          if threshold >= 3. *. single then h1.Registry.solve inst ~threshold
          else None);
    }
  in
  let t = Failure.instance_threshold counting inst in
  Alcotest.(check bool) "boundary in (2, 3] x single" true
    (t >= 2. *. single && t <= 3. *. single);
  Alcotest.(check int) "single-processor period probed once" 1
    (List.length (List.filter (fun x -> x = single) !probed))

(* ------------------------------------------------------------------ *)
(* Reach: one walk answers every threshold probe                       *)
(* ------------------------------------------------------------------ *)

let test_only_ft_lacks_reach () =
  Alcotest.(check (list string)) "rows without reach" [ "ft-rep-tri" ]
    (List.filter_map
       (fun (i : Registry.info) ->
         if i.Registry.reach = None then Some i.Registry.id else None)
       Registry.all)

let reach_of (info : Registry.info) = Option.get info.Registry.reach

(* The contract of [Registry.info.reach]: [solve] succeeds at [t] iff
   [Tol.meets (reach inst) t]. Thresholds sit where the answer can
   flip: the candidates of the row's own set nearest [reach] and those
   picked by [picks], each with its one-ulp neighbours, and [reach] with
   its neighbours and just below the acceptance slack. *)
let reach_contract_holds (info : Registry.info) inst picks =
  let reach = reach_of info inst in
  let cost = Cost.get inst.Instance.app inst.Instance.platform in
  let cands =
    match info.Registry.stack with
    | Registry.Deal -> Candidates.deal_periods cost
    | _ -> Candidates.periods cost
  in
  let count = Array.length cands in
  let below =
    Array.fold_left (fun k c -> if c < reach then k + 1 else k) 0 cands
  in
  let nearest =
    List.filter
      (fun i -> i >= 0 && i < count)
      (List.init 5 (fun d -> below - 3 + d))
  in
  let around c = [ Float.pred c; c; Float.succ c ] in
  let thresholds =
    (reach *. (1. -. 1e-9)) :: around reach
    @ List.concat_map (fun i -> around cands.(i mod count)) (nearest @ picks)
  in
  List.for_all
    (fun t ->
      info.Registry.solve inst ~threshold:t <> None
      = Pipeline_util.Tol.meets reach t)
    thresholds

let prop_reach_contract (info : Registry.info) =
  let instance seed =
    match info.Registry.stack with
    | Registry.Het -> Helpers.random_het_instance ~n_max:8 ~p_max:5 seed
    | _ -> Helpers.random_instance seed
  in
  Helpers.qtest ~count:200
    ("solve succeeds iff reach meets: " ^ info.Registry.id)
    QCheck2.Gen.(pair gen_seed (list_repeat 8 nat))
    (fun (seed, picks) -> reach_contract_holds info (instance seed) picks)

let reach_contract_props =
  List.map prop_reach_contract
    (List.filter
       (fun (i : Registry.info) -> i.Registry.reach <> None)
       Registry.all)

(* On the lazy lattice the searched threshold equals the walked one:
   the same bisection over bit patterns finds the same boundary whether
   each probe solves or compares with [reach]. *)
let prop_reach_lazy_lattice =
  Helpers.qtest ~count:30 "lattice: solve-probed = reach-probed (H1, H4)"
    gen_uniform_large
    (fun inst ->
      let cost = Cost.get inst.Instance.app inst.Instance.platform in
      let set = Candidates.Set.of_engine ~max_materialised:0 cost in
      Candidates.Set.is_lazy set
      && List.for_all
           (fun id ->
             let info = Option.get (Registry.find id) in
             let solves t = info.Registry.solve inst ~threshold:t <> None in
             let meets = Pipeline_util.Tol.meets (reach_of info inst) in
             Threshold.boundary_set ~set ~succeeds:solves ()
             = Threshold.boundary_set ~set ~succeeds:meets ())
           [ "h1-sp-mono-p"; "h4-sp-bi-p" ])

(* ------------------------------------------------------------------ *)
(* Sp_bi_p: adaptive bisection vs the legacy fixed-count loop          *)
(* ------------------------------------------------------------------ *)

(* The pre-rewrite Sp_bi_p.solve, verbatim (modulo the probe counter):
   25 iterations, each skipped once the bracket converged at 1e-12. *)
let legacy_sp_bi_p inst ~period =
  let attempt cap =
    Option.map Pipeline_core.Split.to_solution
      (Pipeline_core.Loop.minimise_latency_under_period ~latency_cap:cap
         (Pipeline_core.Split.stack ~arity:Two ~rule:Bi inst)
         ~period)
  in
  match attempt infinity with
  | None -> None
  | Some unconstrained ->
    let best = ref unconstrained in
    let lo = ref (Instance.optimal_latency inst)
    and hi = ref unconstrained.Solution.latency in
    for _ = 1 to 25 do
      if !hi -. !lo > 1e-12 *. Float.max 1. !hi then begin
        let cap = (!lo +. !hi) /. 2. in
        match attempt cap with
        | Some sol ->
          if sol.Solution.latency < !best.Solution.latency then best := sol;
          hi := cap
        | None -> lo := cap
      end
    done;
    Some !best

let prop_sp_bi_p_unchanged =
  Helpers.qtest ~count:60 "new Sp_bi_p = legacy 25-step bisection"
    QCheck2.Gen.(pair gen_small (float_range 1.0 3.0))
    (fun (inst, factor) ->
      let period =
        factor *. (Pipeline_optimal.Bicriteria.min_period inst).Solution.period
      in
      match (Pipeline_core.Sp_bi_p.solve inst ~period, legacy_sp_bi_p inst ~period) with
      | None, None -> true
      | Some a, Some b ->
        a.Solution.period = b.Solution.period
        && a.Solution.latency = b.Solution.latency
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Golden thresholds                                                   *)
(* ------------------------------------------------------------------ *)

(* Every threshold the searches produce, pinned bit-for-bit: each
   registry row but ft on E1-E4 x n in {5, 10, 20, 40} x 2 pairs
   (p = 10, seed 2007) through Failure.instance_threshold, and the four
   het rows on each bandwidth family (n = 12, p = 6, 2 pairs) through
   Het_campaign.instance_threshold, rendered as hex floats and compared
   with test/golden-threshold/thresholds.txt. On a mismatch the full
   rendering is written to thresholds.txt.actual in the test's working
   directory, ready to diff or copy over the golden. *)
let render_thresholds () =
  let module E = Pipeline_experiments in
  let buf = Buffer.create 32768 in
  let rows =
    List.filter
      (fun (i : Registry.info) -> i.Registry.stack <> Registry.Ft)
      Registry.all
  in
  List.iter
    (fun e ->
      List.iter
        (fun n ->
          let setup = E.Config.default_setup ~pairs:2 ~seed:2007 e ~n ~p:10 in
          List.iteri
            (fun k inst ->
              List.iter
                (fun (info : Registry.info) ->
                  Printf.bprintf buf "%s n=%d #%d %s %h\n"
                    (E.Config.experiment_name e) n k info.Registry.id
                    (Failure.instance_threshold info inst))
                rows)
            (E.Workload.instances setup))
        [ 5; 10; 20; 40 ])
    E.Config.all_experiments;
  List.iter
    (fun family ->
      List.iteri
        (fun k inst ->
          List.iter
            (fun (info : Registry.info) ->
              Printf.bprintf buf "%s #%d %s %h\n"
                (E.Het_campaign.family_name family) k info.Registry.id
                (E.Het_campaign.instance_threshold info inst))
            Registry.het)
        (E.Het_campaign.family_instances ~pairs:2 ~seed:2007 ~family ~n:12 6))
    E.Het_campaign.families;
  Buffer.contents buf

let test_thresholds_golden () =
  let actual = render_thresholds () in
  let expected =
    In_channel.with_open_bin "golden-threshold/thresholds.txt"
      In_channel.input_all
  in
  if actual <> expected then begin
    Out_channel.with_open_bin "thresholds.txt.actual" (fun oc ->
        Out_channel.output_string oc actual);
    Alcotest.failf "thresholds moved; full rendering in %s"
      (Filename.concat (Sys.getcwd ()) "thresholds.txt.actual")
  end

(* ------------------------------------------------------------------ *)
(* Threshold.bisect                                                    *)
(* ------------------------------------------------------------------ *)

let test_bisect_brackets () =
  let b =
    Threshold.bisect ~lo:0. ~hi:10. ~feasible:(fun x -> x >= Float.pi) ()
  in
  Alcotest.(check bool) "lo below boundary" true (b.Threshold.lo < Float.pi);
  Alcotest.(check bool) "hi at or above boundary" true (b.Threshold.hi >= Float.pi);
  Alcotest.(check bool) "converged early" true (b.Threshold.probes < 64);
  Alcotest.(check bool) "tight bracket" true
    (Pipeline_util.Tol.converged ~lo:b.Threshold.lo ~hi:b.Threshold.hi ())

let test_bisect_probe_cap () =
  let probes = ref 0 in
  let b =
    Threshold.bisect ~max_probes:7 ~lo:0. ~hi:1e9
      ~feasible:(fun x ->
        incr probes;
        x >= 123.456)
      ()
  in
  Alcotest.(check int) "capped" 7 b.Threshold.probes;
  Alcotest.(check int) "probe called once per step" 7 !probes

let () =
  Alcotest.run "threshold"
    [
      ( "candidates",
        [
          Alcotest.test_case "of_values" `Quick test_of_values;
          Alcotest.test_case "mem and ceiling" `Quick test_mem_ceiling;
          Alcotest.test_case "cached on the engine" `Quick test_cached_on_engine;
          Alcotest.test_case "het candidate sets" `Quick test_het_candidates;
          prop_period_is_candidate;
          prop_optimal_period_is_candidate;
          prop_deal_optimum_is_candidate;
        ] );
      ( "search",
        [
          Alcotest.test_case "exact smallest feasible" `Quick test_search_exact;
          Alcotest.test_case "infeasible and empty" `Quick test_search_infeasible;
          prop_search_matches_scan;
        ] );
      ( "lazy-set",
        [
          prop_lazy_set_extrema;
          prop_lazy_floor_ceiling_mem;
          prop_search_set_matches_search;
          prop_boundary_set_matches_boundary;
          prop_search_set_probes_unchanged;
          Alcotest.test_case "sweeps allocate nothing" `Quick
            test_lazy_sweeps_allocation;
        ] );
      ( "het-candidates",
        [
          prop_het_period_is_candidate;
          prop_het_optimal_period_is_candidate;
          prop_het_boundary_set_matches_scan;
          prop_het_warm_equals_cold;
          prop_het_lazy_set_matches_array;
          prop_het_row_threshold_sound;
        ] );
      ( "failure-boundary",
        [
          prop_failure_threshold_sound;
          Alcotest.test_case "widening probes each top once" `Quick
            test_widening_probes_each_top_once;
        ] );
      ( "reach",
        Alcotest.test_case "only ft lacks reach" `Quick test_only_ft_lacks_reach
        :: prop_reach_lazy_lattice :: reach_contract_props );
      ("sp-bi-p", [ prop_sp_bi_p_unchanged ]);
      ( "golden",
        [ Alcotest.test_case "thresholds" `Quick test_thresholds_golden ] );
      ( "bisect",
        [
          Alcotest.test_case "brackets the boundary" `Quick test_bisect_brackets;
          Alcotest.test_case "probe cap" `Quick test_bisect_probe_cap;
        ] );
    ]
