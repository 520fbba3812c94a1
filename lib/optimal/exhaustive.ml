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
      invalid_arg "Deal_exhaustive.fold: instance too large to enumerate"

(* The processors no mask of a deal prefix holds. *)
let free_of ~p masks = List.fold_left (fun free g -> free land lnot g) ((1 lsl p) - 1) masks

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

(* The mapping a task's enumeration has reached, overwritten in place as
   it moves on: interval j is [bounds.(j) + 1, bounds.(j + 1)] and
   received [grants.(j)]. A plain leaf is scored along its path, so its
   objectives cost O(1) per leaf: [lat.(j)] is the latency of intervals
   before j without the final output, [per.(j)] their largest
   cycle-time, [head.(j)] interval j's input + compute, and [score] the
   complete leaf's period and latency. *)
type 'm leaf = {
  grant : 'm grant;
  n : int;
  m : int;
  bounds : int array;
  grants : int array;
  lat : float array;
  per : float array;
  head : float array;
  score : float array;
}

let mapping (type m) (leaf : m leaf) : m =
  let interval j = Interval.make ~first:(leaf.bounds.(j) + 1) ~last:leaf.bounds.(j + 1) in
  match leaf.grant with
  | Proc -> Mapping.make ~n:leaf.n (List.init leaf.m (fun j -> (interval j, leaf.grants.(j))))
  | Procs ->
    let rec members u mask =
      if mask = 0 then []
      else if mask land 1 = 1 then u :: members (u + 1) (mask lsr 1)
      else members (u + 1) (mask lsr 1)
    in
    Deal_mapping.make ~n:leaf.n
      (List.init leaf.m (fun j -> (interval j, members 0 leaf.grants.(j))))

let period (leaf : Mapping.t leaf) = leaf.score.(0)
let latency (leaf : Mapping.t leaf) = leaf.score.(1)

(* Interval j of a plain leaf has its processor: add its input and
   computation to the latency, and close interval j - 1's cycle-time,
   whose output goes to this processor. The terms are Cost's and the
   association is Cost.cycle_time's and Cost.latency's, so the scores
   are bit-identical to Cost.period and Cost.latency of the mapping. *)
let enter cost (leaf : Mapping.t leaf) j =
  let u = leaf.grants.(j) and d = leaf.bounds.(j) + 1 and e = leaf.bounds.(j + 1) in
  let prev = if j = 0 then Cost.io else leaf.grants.(j - 1) in
  let input = Cost.input cost ~d ~prev ~u and compute = Cost.compute cost ~d ~e ~u in
  leaf.lat.(j + 1) <- leaf.lat.(j) +. input +. compute;
  leaf.head.(j) <- input +. compute;
  if j > 0 then
    leaf.per.(j) <-
      Float.max leaf.per.(j - 1)
        (leaf.head.(j - 1) +. Cost.output cost ~e:(d - 1) ~u:prev ~next:u)

(* The last interval's output goes to the I/O port: it closes the last
   cycle-time and the latency. *)
let close cost (leaf : Mapping.t leaf) =
  let m = leaf.m in
  let output = Cost.output cost ~e:leaf.n ~u:leaf.grants.(m - 1) ~next:Cost.io in
  leaf.score.(0) <- Float.max leaf.per.(m - 1) (leaf.head.(m - 1) +. output);
  leaf.score.(1) <- leaf.lat.(m) +. output

(* Sequential enumeration of one task's subtree, in canonical order. The
   plain choice loop is a [for] over [used]: no closure per level and no
   bit mask, so p is not capped by the word size. The engine is fetched
   here, inside the task, because engines are domain-local. *)
let run_task (type m) (grant : m grant) (inst : Instance.t) (task : task) (f : m leaf -> unit) =
  let n = Application.n inst.app and p = Platform.p inst.platform in
  let cost = Cost.get inst.app inst.platform in
  let m = task.m in
  let leaf =
    { grant; n; m; bounds = Array.make (m + 1) n; grants = Array.make m 0;
      lat = Array.make (m + 1) 0.; per = Array.make m neg_infinity;
      head = Array.make m 0.; score = Array.make 2 0. }
  in
  leaf.bounds.(0) <- 0;
  List.iteri (fun i c -> leaf.bounds.(task.k - i) <- c) task.cuts_rev;
  let used = Array.make p false in
  let serve j g =
    leaf.grants.(j) <- g;
    match grant with Proc -> enter cost leaf j | Procs -> ()
  in
  (* [free]: the processors no deal mask holds yet. *)
  let rec assign j free =
    if j = m then begin
      (match grant with Proc -> close cost leaf | Procs -> ());
      f leaf
    end
    else
      match grant with
      | Proc ->
        for u = 0 to p - 1 do
          if not used.(u) then begin
            used.(u) <- true;
            serve j u;
            assign (j + 1) free;
            used.(u) <- false
          end
        done
      | Procs ->
        let s = ref (free land -free) in
        while !s <> 0 do
          serve j !s;
          assign (j + 1) (free land lnot !s);
          s := (!s - free) land free
        done
  in
  (* A task that already served intervals has chosen all its cuts. *)
  List.iteri
    (fun j g ->
      (match grant with Proc -> used.(g) <- true | Procs -> ());
      serve j g)
    (List.rev task.grants_rev);
  let rec choose_cuts i start =
    if i = m then assign task.j (free_of ~p task.grants_rev)
    else
      for c = start to n - m + i do
        leaf.bounds.(i) <- c;
        choose_cuts (i + 1) (c + 1)
      done
  in
  choose_cuts (task.k + 1) task.next_cut

(* Count mappings task-locally and flush one sum per task: totals are
   order-independent, hence identical at any [--jobs N], and the enabled
   cost is one atomic add per frontier task. *)
let counted rule run f =
  if not (Obs.metrics_enabled ()) then run f
  else begin
    let local = ref 0 in
    run (fun leaf ->
        incr local;
        f leaf);
    Obs.Counter.add rule.mappings !local
  end

let frontier (rule : _ rule) (inst : Instance.t) =
  let n = Application.n inst.app and p = Platform.p inst.platform in
  check_size rule.grant ~n ~p;
  let roots =
    Array.init (min n p) (fun i ->
        { m = i + 1; cuts_rev = []; k = 0; next_cut = 1; grants_rev = []; j = 0 })
  in
  let frontier = Pipeline_util.Pool.fan_out ~children:(children rule.grant ~n ~p) roots in
  Obs.Counter.add rule.branches (Array.length frontier);
  frontier

let iter_mappings inst f =
  Array.iter
    (fun task -> counted plain (run_task Proc inst task) (fun leaf -> f (mapping leaf)))
    (frontier plain inst)

(* Fan the frontier tasks out across the domain pool, folding each
   subtree locally; [merge] must combine two task-local accumulators
   such that index-ordered merging equals the sequential fold (true for
   the first-seen-wins bests and the running fronts below). *)
let fold (rule : _ rule) inst ~init ~step ~merge =
  let locals =
    Pipeline_util.Pool.map
      (fun task ->
        let acc = ref init in
        counted rule (run_task rule.grant inst task) (fun leaf -> acc := step !acc leaf);
        !acc)
      (frontier rule inst)
  in
  Array.fold_left merge init locals

(* The solution a query keeps: only now is the leaf's mapping built. *)
let solution leaf = { Solution.mapping = mapping leaf; period = period leaf; latency = latency leaf }

(* First-seen-wins minimisation: a leaf replaces the incumbent only when
   it is strictly better, so the sequential fold keeps the earlier
   solution on ties, and merging task bests left-to-right with the same
   rule reproduces it exactly. *)
let constrained_best ~feasible ~by_period inst =
  let measure (s : Solution.t) = if by_period then s.period else s.latency in
  let beats value = function Some best -> not (measure best <= value) | None -> true in
  fold plain inst ~init:None
    ~merge:(fun acc -> function Some sol when beats (measure sol) acc -> Some sol | _ -> acc)
    ~step:(fun acc leaf ->
      if feasible leaf && beats (if by_period then period leaf else latency leaf) acc then
        Some (solution leaf)
      else acc)

let best_by ~by_period inst =
  match constrained_best ~feasible:(fun _ -> true) ~by_period inst with
  | Some sol -> sol
  | None -> assert false (* at least the single-interval mappings exist *)

let min_period inst = best_by ~by_period:true inst
let min_latency inst = best_by ~by_period:false inst

let min_latency_under_period inst ~period:bound =
  constrained_best inst ~by_period:false ~feasible:(fun leaf ->
      Pipeline_util.Tol.meets (period leaf) bound)

let min_period_under_latency inst ~latency:bound =
  constrained_best inst ~by_period:true ~feasible:(fun leaf ->
      Pipeline_util.Tol.meets (latency leaf) bound)

(* The running front (DESIGN.md §14.1): [(p, l)] is weakly dominated by
   a kept point that it does not tie exactly. *)
let dominated front p l =
  List.exists
    (fun (s : Solution.t) -> s.period <= p && s.latency <= l && (s.period < p || s.latency < l))
    front

(* Keep [s], which no point dominates, and drop the points it weakly
   dominates — an exact tie included, so the later point wins. *)
let admit front (s : Solution.t) =
  s :: List.filter (fun (t : Solution.t) -> not (s.period <= t.period && s.latency <= t.latency)) front

let offer front (s : Solution.t) = if dominated front s.period s.latency then front else admit front s

(* Each task keeps its non-dominated leaves, later ones winning exact
   ties; merging task fronts in index order applies the same rule, and
   Solution.front then sweeps the survivors. *)
let pareto inst =
  Solution.front
    (fold plain inst ~init:[] ~merge:(List.fold_left offer) ~step:(fun front leaf ->
         if dominated front (period leaf) (latency leaf) then front
         else admit front (solution leaf)))
