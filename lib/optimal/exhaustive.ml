open Pipeline_model
open Pipeline_core

let rec binomial n k =
  if k < 0 || k > n then 0.
  else if k = 0 || k = n then 1.
  else binomial (n - 1) (k - 1) *. float_of_int n /. float_of_int k

let count_mappings ~n ~p =
  let total = ref 0. in
  for m = 1 to min n p do
    let partitions = binomial (n - 1) (m - 1) in
    let arrangements = ref 1. in
    for i = 0 to m - 1 do
      arrangements := !arrangements *. float_of_int (p - i)
    done;
    total := !total +. (partitions *. !arrangements)
  done;
  !total

let guard = 1e7

(* One diagnostic for every surface that re-checks the guard (CLI exit-2,
   serve HTTP 400): the actual enumeration size next to the bound, and a
   reminder that the bound is a property of the instance, not of the
   parallelism. *)
let oversized ~n ~p =
  let count = count_mappings ~n ~p in
  if count > guard then
    Some
      (Printf.sprintf
         "instance too large for the exact solver on a fully heterogeneous \
          platform: %.3g interval mappings exceed the %.0e enumeration guard \
          (a --jobs-independent bound)"
         count guard)
  else None

let c_mappings =
  Obs.Counter.make ~doc:"mappings enumerated by Optimal.Exhaustive"
    "optimal.exhaustive.mappings"

let c_branches =
  Obs.Counter.make ~doc:"frontier tasks fanned out by Optimal.Exhaustive"
    "optimal.exhaustive.branches"

(* A task is a prefix of the enumeration tree: the interval count [m],
   the cuts chosen so far (all cuts precede any processor choice, as in
   the sequential enumeration), then the processors assigned to the
   leading intervals. Expanding a task in ascending choice order and
   concatenating the children's subtrees reproduces the parent's subtree
   verbatim, which is what keeps the frontier's index order equal to the
   historical sequential enumeration order — and therefore every
   first-seen-wins fold below bit-identical at any [--jobs N]. *)
type task = {
  m : int;
  cuts_rev : int list;  (* chosen internal cuts, reversed *)
  k : int;  (* number of cuts chosen; complete at m - 1 *)
  next_cut : int;  (* smallest admissible next cut *)
  procs_rev : int list;  (* processors of intervals 1..j, reversed *)
  j : int;  (* number of processors assigned; complete at m *)
}

let children ~n ~p task =
  if task.k < task.m - 1 then begin
    (* Next cut: every admissible position, ascending. *)
    let remaining = task.m - 1 - task.k in
    let last = n - 1 - (remaining - 1) in
    if last < task.next_cut then [||]
    else
      Array.init
        (last - task.next_cut + 1)
        (fun i ->
          let c = task.next_cut + i in
          { task with cuts_rev = c :: task.cuts_rev; k = task.k + 1; next_cut = c + 1 })
  end
  else if task.j < task.m then begin
    (* Next processor: every free index, ascending. *)
    let used = Array.make p false in
    List.iter (fun u -> used.(u) <- true) task.procs_rev;
    let free = ref [] in
    for u = p - 1 downto 0 do
      if not used.(u) then free := u :: !free
    done;
    Array.of_list
      (List.map
         (fun u -> { task with procs_rev = u :: task.procs_rev; j = task.j + 1 })
         !free)
  end
  else [||] (* a single fully-determined mapping *)

(* Sequential enumeration of one task's subtree, in canonical order. *)
let run_task ~n ~p task f =
  let used = Array.make p false in
  List.iter (fun u -> used.(u) <- true) task.procs_rev;
  let rec assign j procs_rev cuts =
    if j = task.m then f (Mapping.of_cuts ~n ~cuts ~procs:(List.rev procs_rev))
    else
      for u = 0 to p - 1 do
        if not used.(u) then begin
          used.(u) <- true;
          assign (j + 1) (u :: procs_rev) cuts;
          used.(u) <- false
        end
      done
  in
  let rec choose_cuts start chosen_rev remaining =
    if remaining = 0 then assign task.j task.procs_rev (List.rev chosen_rev)
    else
      for c = start to n - 1 - (remaining - 1) do
        choose_cuts (c + 1) (c :: chosen_rev) (remaining - 1)
      done
  in
  choose_cuts task.next_cut task.cuts_rev (task.m - 1 - task.k)

(* Count mappings task-locally and flush one sum per task: totals are
   order-independent, hence identical at any [--jobs N], and the enabled
   cost is one atomic add per frontier task. *)
let counted run f =
  if not (Obs.metrics_enabled ()) then run f
  else begin
    let local = ref 0 in
    run (fun mapping ->
        incr local;
        f mapping);
    Obs.Counter.add c_mappings !local
  end

let tasks (inst : Instance.t) =
  let n = Application.n inst.app and p = Platform.p inst.platform in
  if count_mappings ~n ~p > guard then
    invalid_arg "Exhaustive.iter_mappings: instance too large to enumerate";
  let roots =
    Array.init (min n p) (fun i ->
        { m = i + 1; cuts_rev = []; k = 0; next_cut = 1; procs_rev = []; j = 0 })
  in
  let frontier = Pipeline_util.Pool.fan_out ~children:(children ~n ~p) roots in
  Obs.Counter.add c_branches (Array.length frontier);
  (n, p, frontier)

let iter_mappings (inst : Instance.t) f =
  let n, p, frontier = tasks inst in
  Array.iter (fun task -> counted (run_task ~n ~p task) f) frontier

(* Fan the frontier tasks out across the domain pool, folding each
   subtree locally; [combine] must merge two task-local accumulators
   such that index-ordered merging equals the sequential fold (true for
   the first-seen-wins "best" folds below). *)
let parallel_fold inst f init combine =
  let n, p, frontier = tasks inst in
  let locals =
    Pipeline_util.Pool.map
      (fun task ->
        let acc = ref init in
        counted (run_task ~n ~p task) (fun mapping ->
            acc := f !acc (Solution.of_mapping inst mapping));
        !acc)
      frontier
  in
  Array.fold_left combine init locals

(* First-seen-wins minimisation: the sequential fold keeps the earlier
   solution on ties, so merging task bests left-to-right with the same
   rule reproduces it exactly. *)
let keep_better measure acc candidate =
  match (acc, candidate) with
  | Some best, Some sol when measure best <= measure sol -> acc
  | _, None -> acc
  | _ -> candidate

let best_by measure inst =
  let step acc sol = keep_better measure acc (Some sol) in
  match parallel_fold inst step None (keep_better measure) with
  | Some sol -> sol
  | None -> assert false (* at least the single-interval mappings exist *)

let min_period inst = best_by (fun s -> s.Solution.period) inst
let min_latency inst = best_by (fun s -> s.Solution.latency) inst

let constrained_best ~feasible ~measure inst =
  let step acc sol =
    if not (feasible sol) then acc else keep_better measure acc (Some sol)
  in
  parallel_fold inst step None (keep_better measure)

let min_latency_under_period inst ~period =
  constrained_best inst
    ~feasible:(fun sol -> Solution.respects_period sol period)
    ~measure:(fun s -> s.Solution.latency)

let min_period_under_latency inst ~latency =
  constrained_best inst
    ~feasible:(fun sol -> Solution.respects_latency sol latency)
    ~measure:(fun s -> s.Solution.period)

let pareto inst =
  (* Task-local prepending reverses each subtree; prepending whole task
     lists in index order then yields exactly the sequential
     (reversed-global) list, so the sort sees identical input. *)
  let n, p, frontier = tasks inst in
  let points =
    Array.fold_left
      (fun acc task_points -> task_points @ acc)
      []
      (Pipeline_util.Pool.map
         (fun task ->
           let acc = ref [] in
           counted (run_task ~n ~p task) (fun mapping ->
               acc := Solution.of_mapping inst mapping :: !acc);
           !acc)
         frontier)
  in
  Solution.front points
