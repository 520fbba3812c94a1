(* The shared threshold-search engine (DESIGN.md §9): exact binary
   search over a finite candidate array for the period direction,
   adaptive bisection for the latency direction. Both drivers only
   assume the probe is monotone (feasible at t implies feasible at every
   t' > t); both count their probes so the reduction over the legacy
   fixed-iteration bisections shows up in metrics.csv. *)

let c_candidate_probes =
  Obs.Counter.make ~doc:"feasibility probes issued by Threshold.search"
    "model.threshold.candidate_probes"

let c_bisect_probes =
  Obs.Counter.make ~doc:"feasibility probes issued by Threshold.bisect"
    "model.threshold.bisect_probes"

let c_memo_hits =
  Obs.Counter.make
    ~doc:"probe results served from the Threshold memo instead of re-probing"
    "model.threshold.memo_hits"

let c_lattice_probes =
  Obs.Counter.make
    ~doc:"feasibility probes issued by Threshold.search_set on lazy lattice sets"
    "model.threshold.lattice_probes"

type 'a found = { threshold : float; payload : 'a; probes : int }

(* Callers that must not move the historical counters (new bench
   sections gated by the golden metrics dump) pass their own
   [?probe_counter]; it then receives every probe this search issues and
   the default counters (including the memo-hit bookkeeping) stay
   untouched. *)
let account ?probe_counter ~default ~memo_hit probes =
  match probe_counter with
  | Some c -> Obs.Counter.add c probes
  | None ->
    Obs.Counter.add default probes;
    if memo_hit then Obs.Counter.add c_memo_hits 1

let search ?probe_counter ~candidates ~probe () =
  let count = Array.length candidates in
  if count = 0 then None
  else begin
    let probes = ref 0 in
    let run i =
      incr probes;
      probe candidates.(i)
    in
    (* The search keeps the payload of the lowest feasible index seen, so
       the winning candidate is probed exactly once: the legacy drivers
       re-probed it after the loop to recover the solution. *)
    match run (count - 1) with
    | None ->
      account ?probe_counter ~default:c_candidate_probes ~memo_hit:false
        !probes;
      None
    | Some top ->
      let best = ref (count - 1, top) in
      let lo = ref 0 and hi = ref (count - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        match run mid with
        | Some payload ->
          best := (mid, payload);
          hi := mid
        | None -> lo := mid + 1
      done;
      account ?probe_counter ~default:c_candidate_probes ~memo_hit:true !probes;
      let i, payload = !best in
      assert (i = !lo);
      Some { threshold = candidates.(i); payload; probes = !probes }
  end

(* Exact search over a possibly-lazy candidate set. Materialised sets
   delegate to [search] (same probes, same counters — bit-identical to
   the historical path). Lazy sets binary-search the IEEE-754 bit
   patterns: non-negative finite doubles order identically to their
   [Int64.bits_of_float] images, so halving the bit bracket and snapping
   each midpoint down onto the set with [Set.floor] finds the smallest
   feasible candidate with no ε and no materialisation. Most rounds of
   that bisection find no candidate at all; a run of them is skipped
   with one [Set.ceiling] (below), so the search costs one floor sweep
   per probing round plus a floor and a ceiling per run of empty
   rounds. *)
let search_set ?probe_counter ~set ~probe () =
  if not (Candidates.Set.is_lazy set) then
    search ?probe_counter ~candidates:(Candidates.Set.force set) ~probe ()
  else begin
    match (Candidates.Set.min_elt set, Candidates.Set.max_elt set) with
    | None, _ | _, None -> None
    | Some min_elt, Some max_elt ->
      let probes = ref 0 in
      let run v =
        incr probes;
        probe v
      in
      let finish (threshold, payload) =
        account ?probe_counter ~default:c_lattice_probes ~memo_hit:false
          !probes;
        Some { threshold; payload; probes = !probes }
      in
      (match run max_elt with
      | None ->
        account ?probe_counter ~default:c_lattice_probes ~memo_hit:false
          !probes;
        None
      | Some top -> (
        if min_elt = max_elt then finish (max_elt, top)
        else
          match run min_elt with
          | Some payload -> finish (min_elt, payload)
          | None ->
            let bits = Int64.bits_of_float and value = Int64.float_of_bits in
            let midpoint lo hi = Int64.add lo (Int64.div (Int64.sub hi lo) 2L) in
            (* Invariant: every candidate <= value !lo is infeasible
               (the probe is monotone); value !hi is a feasible
               candidate whose payload is in !best. *)
            let lo = ref (bits min_elt) and hi = ref (bits max_elt) in
            let best = ref (max_elt, top) in
            while Int64.sub !hi !lo > 1L do
              let mid = midpoint !lo !hi in
              match Candidates.Set.floor set (value mid) with
              | None -> assert false (* min_elt <= value !lo < value mid *)
              | Some c ->
                if Int64.compare (bits c) !lo <= 0 then begin
                  (* No candidate in (value !lo, value mid]. The
                     smallest candidate above value !lo lies above
                     value mid, and every later round whose midpoint
                     stays below it is empty as well: replay those
                     rounds' [lo := mid] as integer steps. The first
                     probing round then sees the very bracket a
                     round-by-round loop would have reached. *)
                  match Candidates.Set.ceiling set (Float.succ (value !lo)) with
                  | None -> assert false (* value !hi is one *)
                  | Some next ->
                    lo := mid;
                    while
                      Int64.sub !hi !lo > 1L
                      && Int64.compare (midpoint !lo !hi) (bits next) < 0
                    do
                      lo := midpoint !lo !hi
                    done
                end
                else (
                  match run c with
                  | Some payload ->
                    best := (c, payload);
                    hi := bits c
                  | None -> lo := bits c)
            done;
            finish !best))
  end

let boundary_set ?probe_counter ~set ~succeeds () =
  match
    search_set ?probe_counter ~set
      ~probe:(fun t -> if succeeds t then Some () else None)
      ()
  with
  | None -> None
  | Some { threshold; _ } -> Some threshold

type bisection = { lo : float; hi : float; probes : int }

let bisect ?(max_probes = 64) ?(rel = Pipeline_util.Tol.bisect_rel)
    ?probe_counter ~lo ~hi ~feasible () =
  let lo = ref lo and hi = ref hi in
  let probes = ref 0 in
  (* Memoised midpoints: brackets that collapse onto a previous midpoint
     (degenerate spans) are served from the memo instead of re-probing. *)
  let memo = ref [] in
  let run mid =
    match List.assoc_opt mid !memo with
    | Some ok ->
      if probe_counter = None then Obs.Counter.add c_memo_hits 1;
      ok
    | None ->
      incr probes;
      let ok = feasible mid in
      memo := (mid, ok) :: !memo;
      ok
  in
  while
    (not (Pipeline_util.Tol.converged ~rel ~lo:!lo ~hi:!hi ()))
    && !probes < max_probes
  do
    let mid = (!lo +. !hi) /. 2. in
    if run mid then hi := mid else lo := mid
  done;
  account ?probe_counter ~default:c_bisect_probes ~memo_hit:false !probes;
  { lo = !lo; hi = !hi; probes = !probes }
