open Pipeline_model
open Pipeline_core
module Pool = Pipeline_util.Pool

type result = {
  solution : Solution.t;
  proven_optimal : bool;
  nodes : int;
}

let c_nodes =
  Obs.Counter.make ~doc:"nodes expanded by Branch_bound.min_period"
    "optimal.bb.nodes"

let c_pruned =
  Obs.Counter.make ~doc:"subtrees cut by the Branch_bound lower bounds"
    "optimal.bb.pruned"

let c_tasks =
  Obs.Counter.make ~doc:"frontier tasks fanned out by Branch_bound"
    "optimal.bb.tasks"

let c_waves =
  Obs.Counter.make ~doc:"synchronous incumbent waves run by Branch_bound"
    "optimal.bb.waves"

(* Per wave and per task: enough nodes to amortise the wave barrier,
   few enough that incumbent improvements propagate across tasks
   quickly (DESIGN.md §14 discusses the trade-off). *)
let wave_quota = 4096

(* A search node, path-pure: every field is a function of the choices
   on the path from the root, never of traversal history — which is
   what makes pruning decisions reproducible at any domain count.
   [free] holds, per distinct-speed class, the unused processor
   indices (immutable lists, tails shared with the parent node). *)
type node = {
  d : int;  (* next stage to map; complete when d > n *)
  current : float;  (* max interval cycle-time so far *)
  partial : (Interval.t * int) list;  (* reversed assignment *)
  free : int list array;  (* free members per speed class *)
  counts : int array;  (* free count per speed class *)
  sum_speed : float;  (* Σ speeds of free processors *)
}

(* One frontier task: a depth-first machine over one subtree,
   suspendable at wave boundaries. Mutated only by the worker that owns
   it during a wave; waves are separated by domain joins. *)
type task = {
  mutable stack : node list;
  mutable best : (float * (Interval.t * int) list) option;
  mutable nodes : int;
  mutable pruned : int;
}

let min_period ?(node_budget = 1_000_000) ?initial (inst : Instance.t) =
  if not (Platform.is_comm_homogeneous inst.platform) then
    invalid_arg "Branch_bound: requires a comm-homogeneous platform";
  let app = inst.app and platform = inst.platform in
  let n = Application.n app in
  let b = Platform.io_bandwidth platform 0 in
  let speeds = Platform.speeds platform in
  (* Speed classes, fastest first; members in enrolment order (the
     by-decreasing-speed representative order of the platform). *)
  let order = Platform.by_decreasing_speed platform in
  let class_speeds =
    Array.of_list (List.sort_uniq (fun a b -> compare b a) (Array.to_list speeds))
  in
  let nclasses = Array.length class_speeds in
  let class_of = Hashtbl.create 16 in
  Array.iteri (fun c s -> Hashtbl.replace class_of s c) class_speeds;
  let members = Array.make nclasses [] in
  Array.iter
    (fun u ->
      let c = Hashtbl.find class_of speeds.(u) in
      members.(c) <- u :: members.(c))
    (Array.of_list (List.rev (Array.to_list order)));
  let root_counts = Array.map List.length members in
  let root_sum = Array.fold_left ( +. ) 0. speeds in
  (* Suffix data. *)
  let suffix_work = Array.make (n + 2) 0. in
  for k = n downto 1 do
    suffix_work.(k) <- suffix_work.(k + 1) +. Application.work app k
  done;
  let suffix_max_work = Array.make (n + 2) 0. in
  for k = n downto 1 do
    suffix_max_work.(k) <- Float.max suffix_max_work.(k + 1) (Application.work app k)
  done;
  let tol = 1e-12 in
  (* Every completion's period is a max of interval cycle-times, i.e. a
     member of the finite candidate set — so any relaxation lower bound
     can be snapped up to the next achievable period (DESIGN.md §9). The
     [tol] backoff covers the bounds' own rounding, mirroring the prune
     test below. *)
  let ceiling = Candidates.period_ceiling (Cost.get app platform) in
  let snap lower =
    match ceiling (lower -. tol) with
    | Some c -> Float.max lower c
    | None -> lower
  in
  let max_free_speed counts =
    let rec first c =
      if c >= nclasses then 0.
      else if counts.(c) > 0 then class_speeds.(c)
      else first (c + 1)
    in
    first 0
  in
  (* Capacity + per-stage lower bounds on the suffix d..n, given the
     node's free-processor pool and the max cycle fixed so far. *)
  let suffix_lower node =
    let s_max = max_free_speed node.counts in
    if s_max = 0. then infinity
    else
      (* Valid bounds on the remaining suffix: total capacity; the
         heaviest remaining stage at the best free speed; the next
         interval's unavoidable input transfer plus its first stage.
         (Adding δ_in to the capacity bound would be wrong: the
         bottleneck interval need not be the one paying δ_in.) *)
      List.fold_left Float.max node.current
        [
          suffix_work.(node.d) /. node.sum_speed;
          suffix_max_work.(node.d) /. s_max;
          (Application.delta app (node.d - 1) /. b)
          +. (Application.work app node.d /. s_max);
        ]
  in
  (* Ordered children of an interior node under pruning bound [bound]:
     speed classes fastest-first, interval ends ascending — the
     canonical branch order. [on_prune] sinks the two prune kinds
     (subtree bound, monotone e-loop cut-off). *)
  let children ~bound ~on_prune node =
    let lower = snap (suffix_lower node) in
    if lower >= bound -. tol then begin
      on_prune ();
      [||]
    end
    else begin
      let kids = ref [] in
      let din = Application.delta app (node.d - 1) /. b in
      for c = 0 to nclasses - 1 do
        if node.counts.(c) > 0 then begin
          let s = class_speeds.(c) in
          let u = List.hd node.free.(c) in
          let e = ref node.d in
          let stop = ref false in
          while (not !stop) && !e <= n do
            let work = Application.work_sum app node.d !e in
            (* Monotone part of the cycle: cut the whole e-loop once
               input + compute alone exceed the bound. *)
            if din +. (work /. s) >= bound -. tol then begin
              on_prune ();
              stop := true
            end
            else begin
              let cycle = din +. (work /. s) +. (Application.delta app !e /. b) in
              let current' = Float.max node.current cycle in
              if current' < bound -. tol then begin
                let free' = Array.copy node.free in
                let counts' = Array.copy node.counts in
                free'.(c) <- List.tl node.free.(c);
                counts'.(c) <- node.counts.(c) - 1;
                kids :=
                  {
                    d = !e + 1;
                    current = current';
                    partial = (Interval.make ~first:node.d ~last:!e, u) :: node.partial;
                    free = free';
                    counts = counts';
                    sum_speed = node.sum_speed -. s;
                  }
                  :: !kids
              end;
              incr e
            end
          done
        end
      done;
      Array.of_list (List.rev !kids)
    end
  in
  (* Incumbent seeding, as before the task-tree rewrite. *)
  let initial_solution =
    match initial with
    | Some sol -> sol
    | None -> (
      match Sp_mono_l.solve inst ~latency:infinity with
      | Some sol -> sol
      | None -> Solution.of_mapping inst (Instance.single_proc_mapping inst))
  in
  let root =
    {
      d = 1;
      current = neg_infinity;
      partial = [];
      free = members;
      counts = root_counts;
      sum_speed = root_sum;
    }
  in
  let root_lb = snap (suffix_lower root) in
  let seed =
    match Sp_mono_p.solve inst ~period:root_lb with
    | Some probe when probe.Solution.period < initial_solution.Solution.period ->
      probe
    | _ -> initial_solution
  in
  (* Deterministic frontier: breadth-first, unpruned (a pure function of
     the instance — the incumbent never shapes the frontier), capped by
     the node budget so tiny budgets stay tiny searches. *)
  let expansion_nodes = ref 0 in
  let frontier_nodes =
    Pool.fan_out
      ~cap:(min (Pool.tree_cap ()) (max 1 (node_budget / 8)))
      ~children:(fun node ->
        if node.d > n then [||]
        else begin
          let kids = children ~bound:infinity ~on_prune:(fun () -> ()) node in
          if Array.length kids > 0 then incr expansion_nodes;
          kids
        end)
      [| root |]
  in
  let tasks =
    Array.map
      (fun node -> { stack = [ node ]; best = None; nodes = 0; pruned = 0 })
      frontier_nodes
  in
  Obs.Counter.add c_tasks (Array.length tasks);
  (* The shared monotone incumbent: lowered by the coordinator alone,
     from the index-ordered merge at each wave boundary, so every task
     of a wave prunes against the same frozen bound — pruning is a pure
     function of the wave schedule, never of domain timing. *)
  let incumbent = Pool.Incumbent.make seed.Solution.period in
  let best_partial : (Interval.t * int) list option ref = ref None in
  let run_wave ~quota task =
    let bound () =
      match task.best with
      | Some (bp, _) -> Float.min bp (Pool.Incumbent.get incumbent)
      | None -> Pool.Incumbent.get incumbent
    in
    let steps = ref 0 in
    while !steps < quota && task.stack <> [] do
      match task.stack with
      | [] -> ()
      | node :: rest ->
        task.stack <- rest;
        incr steps;
        task.nodes <- task.nodes + 1;
        if node.d > n then begin
          if node.current < bound () -. tol then
            task.best <- Some (node.current, node.partial)
        end
        else begin
          let kids =
            children ~bound:(bound ())
              ~on_prune:(fun () -> task.pruned <- task.pruned + 1)
              node
          in
          (* Push in reverse so the canonical first child pops first. *)
          for i = Array.length kids - 1 downto 0 do
            task.stack <- kids.(i) :: task.stack
          done
        end
    done
  in
  let consumed = ref !expansion_nodes in
  let exhausted = ref false in
  let waves = ref 0 in
  let running = ref true in
  while !running do
    let alive =
      Array.of_list
        (List.filter
           (fun t -> t.stack <> [])
           (Array.to_list tasks))
    in
    if Array.length alive = 0 then running := false
    else if !consumed >= node_budget then begin
      exhausted := true;
      running := false
    end
    else begin
      incr waves;
      let remaining = node_budget - !consumed in
      let quota =
        max 1
          (min wave_quota
             ((remaining + Array.length alive - 1) / Array.length alive))
      in
      let before = Array.map (fun t -> t.nodes) alive in
      ignore (Pool.map (fun t -> run_wave ~quota t; ()) alive);
      Array.iteri
        (fun i t -> consumed := !consumed + (t.nodes - before.(i)))
        alive;
      (* Index-ordered merge: first-seen-wins on equal periods, so the
         surviving witness is the canonical-order first among the
         recorded ones — a pure function of the wave schedule. *)
      Array.iter
        (fun t ->
          match t.best with
          | Some (bp, partial) when bp < Pool.Incumbent.get incumbent ->
            Pool.Incumbent.lower_to incumbent bp;
            best_partial := Some partial
          | _ -> ())
        tasks
    end
  done;
  Obs.Counter.add c_waves !waves;
  let total_nodes =
    Array.fold_left (fun acc t -> acc + t.nodes) !expansion_nodes tasks
  in
  let total_pruned = Array.fold_left (fun acc t -> acc + t.pruned) 0 tasks in
  Obs.Counter.add c_nodes total_nodes;
  Obs.Counter.add c_pruned total_pruned;
  let solution =
    match !best_partial with
    | Some partial -> Solution.of_mapping inst (Mapping.make ~n (List.rev partial))
    | None -> seed
  in
  { solution; proven_optimal = not !exhausted; nodes = total_nodes }
