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

(* Deal mappings: each of the m intervals picks a non-empty subset of
   the remaining processors, bounded by (2^p)^m per partition. Crude but
   monotone — good enough for a guard. *)
let count_deal_mappings ~n ~p =
  let total = ref 0. in
  for m = 1 to min n p do
    total := !total +. (binomial (n - 1) (m - 1) *. (2. ** float_of_int (p * m)))
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

(* What each interval receives: one free processor (a plain mapping) or
   a non-empty set of free processors, held as a bit mask (a deal
   mapping). *)
type _ grant = Proc : Mapping.t grant | Procs : Deal_mapping.t grant

type 'm rule = {
  grant : 'm grant;
  mappings : Obs.Counter.t;
  branches : Obs.Counter.t;
}

let plain =
  {
    grant = Proc;
    mappings =
      Obs.Counter.make ~doc:"mappings enumerated by Optimal.Exhaustive"
        "optimal.exhaustive.mappings";
    branches =
      Obs.Counter.make ~doc:"frontier tasks fanned out by Optimal.Exhaustive"
        "optimal.exhaustive.branches";
  }

let deal ~mappings ~branches = { grant = Procs; mappings; branches }

let check_size (type m) (grant : m grant) ~n ~p =
  match grant with
  | Proc ->
    if count_mappings ~n ~p > guard then
      invalid_arg "Exhaustive.iter_mappings: instance too large to enumerate"
  | Procs ->
    if count_deal_mappings ~n ~p > 1e6 then
      invalid_arg "Deal_exhaustive.iter: instance too large to enumerate"

(* The processors no mask of a deal prefix holds. *)
let free_of ~p masks = List.fold_left (fun free g -> free land lnot g) ((1 lsl p) - 1) masks

let build (type m) (grant : m grant) ~n ~cuts grants : m =
  match grant with
  | Proc -> Mapping.of_cuts ~n ~cuts ~procs:grants
  | Procs ->
    let rec intervals start = function
      | [] -> [ Interval.make ~first:start ~last:n ]
      | c :: rest -> Interval.make ~first:start ~last:c :: intervals (c + 1) rest
    in
    let rec members u mask =
      if mask = 0 then []
      else if mask land 1 = 1 then u :: members (u + 1) (mask lsr 1)
      else members (u + 1) (mask lsr 1)
    in
    Deal_mapping.make ~n (List.combine (intervals 1 cuts) (List.map (members 0) grants))

(* A task is a prefix of the enumeration tree: the interval count [m],
   the cuts chosen so far (all cuts precede any processor choice, as in
   the sequential enumeration), then what the leading intervals received.
   Expanding a task in ascending choice order and concatenating the
   children's subtrees reproduces the parent's subtree verbatim, which
   is what keeps the frontier's index order equal to the sequential
   enumeration order — and therefore every first-seen-wins fold below
   bit-identical at any [--jobs N]. *)
type task = {
  m : int;
  cuts_rev : int list;  (* chosen internal cuts, reversed *)
  k : int;  (* number of cuts chosen; complete at m - 1 *)
  next_cut : int;  (* smallest admissible next cut *)
  grants_rev : int list;  (* processor or mask of intervals 1..j, reversed *)
  j : int;  (* number of intervals served; complete at m *)
}

let children (type m) (grant : m grant) ~n ~p task =
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
    (* Next grant: every free processor, or every non-empty set of free
       processors, ascending. *)
    let choices =
      match grant with
      | Proc -> List.filter (fun u -> not (List.mem u task.grants_rev)) (List.init p Fun.id)
      | Procs ->
        let free = free_of ~p task.grants_rev in
        let rec from s = if s = 0 then [] else s :: from ((s - free) land free) in
        from (free land -free)
    in
    let served g = { task with grants_rev = g :: task.grants_rev; j = task.j + 1 } in
    Array.of_list (List.map served choices)
  end
  else [||] (* a single fully-determined mapping *)

(* Sequential enumeration of one task's subtree, in canonical order. The
   plain choice loop is a [for] over [used]: no closure per level and no
   bit mask, so p is not capped by the word size. *)
let run_task (type m) (grant : m grant) ~n ~p task (f : m -> unit) =
  let used = Array.make p false in
  (match grant with
  | Proc -> List.iter (fun u -> used.(u) <- true) task.grants_rev
  | Procs -> ());
  let rec assign j grants_rev cuts =
    if j = task.m then f (build grant ~n ~cuts (List.rev grants_rev))
    else
      match grant with
      | Proc ->
        for u = 0 to p - 1 do
          if not used.(u) then begin
            used.(u) <- true;
            assign (j + 1) (u :: grants_rev) cuts;
            used.(u) <- false
          end
        done
      | Procs ->
        let free = free_of ~p grants_rev in
        let s = ref (free land -free) in
        while !s <> 0 do
          assign (j + 1) (!s :: grants_rev) cuts;
          s := (!s - free) land free
        done
  in
  let rec choose_cuts start chosen_rev remaining =
    if remaining = 0 then assign task.j task.grants_rev (List.rev chosen_rev)
    else
      for c = start to n - 1 - (remaining - 1) do
        choose_cuts (c + 1) (c :: chosen_rev) (remaining - 1)
      done
  in
  choose_cuts task.next_cut task.cuts_rev (task.m - 1 - task.k)

(* Count mappings task-locally and flush one sum per task: totals are
   order-independent, hence identical at any [--jobs N], and the enabled
   cost is one atomic add per frontier task. *)
let counted rule run f =
  if not (Obs.metrics_enabled ()) then run f
  else begin
    let local = ref 0 in
    run (fun mapping ->
        incr local;
        f mapping);
    Obs.Counter.add rule.mappings !local
  end

let tasks rule (inst : Instance.t) =
  let n = Application.n inst.app and p = Platform.p inst.platform in
  check_size rule.grant ~n ~p;
  let roots =
    Array.init (min n p) (fun i ->
        { m = i + 1; cuts_rev = []; k = 0; next_cut = 1; grants_rev = []; j = 0 })
  in
  let frontier = Pipeline_util.Pool.fan_out ~children:(children rule.grant ~n ~p) roots in
  Obs.Counter.add rule.branches (Array.length frontier);
  (n, p, frontier)

let iter_mappings inst f =
  let n, p, frontier = tasks plain inst in
  Array.iter (fun task -> counted plain (run_task Proc ~n ~p task) f) frontier

(* Fan the frontier tasks out across the domain pool, folding each
   subtree locally; [merge] must combine two task-local accumulators
   such that index-ordered merging equals the sequential fold (true for
   the first-seen-wins "best" folds below). *)
let fold rule inst ~init ~step ~merge =
  let n, p, frontier = tasks rule inst in
  let locals =
    Pipeline_util.Pool.map
      (fun task ->
        let acc = ref init in
        counted rule (run_task rule.grant ~n ~p task) (fun m -> acc := step !acc m);
        !acc)
      frontier
  in
  Array.fold_left merge init locals

(* First-seen-wins minimisation: the sequential fold keeps the earlier
   solution on ties, so merging task bests left-to-right with the same
   rule reproduces it exactly. *)
let keep_better measure acc candidate =
  match (acc, candidate) with
  | Some best, Some sol when measure best <= measure sol -> acc
  | _, None -> acc
  | _ -> candidate

let constrained_best ~feasible ~measure inst =
  fold plain inst ~init:None ~merge:(keep_better measure) ~step:(fun acc mapping ->
      let sol = Solution.of_mapping inst mapping in
      if feasible sol then keep_better measure acc (Some sol) else acc)

let best_by measure inst =
  match constrained_best ~feasible:(fun _ -> true) ~measure inst with
  | Some sol -> sol
  | None -> assert false (* at least the single-interval mappings exist *)

let min_period inst = best_by (fun s -> s.Solution.period) inst
let min_latency inst = best_by (fun s -> s.Solution.latency) inst

let min_latency_under_period inst ~period =
  constrained_best inst
    ~feasible:(fun sol -> Solution.respects_period sol period)
    ~measure:(fun s -> s.Solution.latency)

let min_period_under_latency inst ~latency =
  constrained_best inst
    ~feasible:(fun sol -> Solution.respects_latency sol latency)
    ~measure:(fun s -> s.Solution.period)

(* Task-local prepending reverses each subtree; prepending whole task
   lists in index order then yields exactly the sequential
   (reversed-global) list, so the sort sees identical input. *)
let pareto inst =
  Solution.front
    (fold plain inst ~init:[]
       ~step:(fun acc mapping -> Solution.of_mapping inst mapping :: acc)
       ~merge:(fun acc task_points -> task_points @ acc))
