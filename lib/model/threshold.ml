(* The shared threshold-search engine (DESIGN.md §9): exact binary
   search over a finite candidate array for the period direction,
   adaptive bisection for the latency direction. Both drivers only
   assume the probe is monotone (feasible at t implies feasible at every
   t' > t); both count their probes so the reduction over the legacy
   fixed-iteration bisections shows up in metrics.csv. *)

let c_candidate_probes =
  Obs.Counter.make
    ~doc:"feasibility probes issued by Threshold.search and search_lattice"
    "model.threshold.candidate_probes"

let c_bisect_probes =
  Obs.Counter.make ~doc:"feasibility probes issued by Threshold.bisect"
    "model.threshold.bisect_probes"

let c_memo_hits =
  Obs.Counter.make
    ~doc:"probe results served from the Threshold memo instead of re-probing"
    "model.threshold.memo_hits"

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

(* Past the array cap the candidates are the lattice behind
   Cost.lattice_ceiling (DESIGN.md §11). Non-negative floats order like
   their IEEE-754 bit patterns, so the search halves a bracket of bit
   patterns and probes the smallest candidate at or above each
   midpoint: only members are ever probed. Invariant: every candidate
   at or below [lo] fails, and the answer is [best] or a candidate
   strictly between [lo] and [hi]; [best] is the ceiling of [hi], so a
   midpoint with that ceiling needs no probe, and a failing ceiling
   moves [lo] up to itself. *)
let search_lattice ?probe_counter cost ~probe () =
  let probes = ref 0 and best = ref None in
  let lo = ref (-1L) and hi = ref (Int64.succ (Int64.bits_of_float infinity)) in
  while Int64.sub !hi !lo > 1L do
    let mid = Int64.add !lo (Int64.div (Int64.sub !hi !lo) 2L) in
    match Cost.lattice_ceiling cost (Int64.float_of_bits mid) with
    | None -> hi := mid
    | Some c -> (
      match !best with
      | Some (b, _) when b = c -> hi := mid
      | _ -> (
        incr probes;
        match probe c with
        | Some payload ->
          best := Some (c, payload);
          hi := mid
        | None -> lo := Int64.bits_of_float c))
  done;
  account ?probe_counter ~default:c_candidate_probes ~memo_hit:false !probes;
  Option.map
    (fun (threshold, payload) -> { threshold; payload; probes = !probes })
    !best

let search_periods ?probe_counter cost ~probe () =
  if Candidates.too_large cost then search_lattice ?probe_counter cost ~probe ()
  else search ?probe_counter ~candidates:(Candidates.periods cost) ~probe ()

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
