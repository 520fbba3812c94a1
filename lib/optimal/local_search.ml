open Pipeline_model
open Pipeline_core

type objective = Period_then_latency | Latency_then_period

let key objective (sol : Solution.t) =
  match objective with
  | Period_then_latency -> (sol.Solution.period, sol.Solution.latency)
  | Latency_then_period -> (sol.Solution.latency, sol.Solution.period)

let neighbours (inst : Instance.t) mapping =
  let n = Mapping.n mapping in
  let p = Platform.p inst.platform in
  let pairs = Array.of_list (Mapping.intervals mapping) in
  let m = Array.length pairs in
  let rebuild pairs' =
    match Mapping.make ~n (Array.to_list pairs') with
    | mapping' -> Some mapping'
    | exception Invalid_argument _ -> None
  in
  let acc = ref [] in
  let push pairs' = match rebuild pairs' with Some m' -> acc := m' :: !acc | None -> () in
  (* Shifts of internal boundaries. *)
  for j = 0 to m - 2 do
    let iv_l, u_l = pairs.(j) and iv_r, u_r = pairs.(j + 1) in
    let d_l = Interval.first iv_l and e_l = Interval.last iv_l in
    let e_r = Interval.last iv_r in
    if Interval.length iv_l >= 2 then begin
      let pairs' = Array.copy pairs in
      pairs'.(j) <- (Interval.make ~first:d_l ~last:(e_l - 1), u_l);
      pairs'.(j + 1) <- (Interval.make ~first:e_l ~last:e_r, u_r);
      push pairs'
    end;
    if Interval.length iv_r >= 2 then begin
      let pairs' = Array.copy pairs in
      pairs'.(j) <- (Interval.make ~first:d_l ~last:(e_l + 1), u_l);
      pairs'.(j + 1) <- (Interval.make ~first:(e_l + 2) ~last:e_r, u_r);
      push pairs'
    end
  done;
  (* Processor swaps between enrolled intervals. *)
  for i = 0 to m - 1 do
    for j = i + 1 to m - 1 do
      let pairs' = Array.copy pairs in
      let iv_i, u_i = pairs.(i) and iv_j, u_j = pairs.(j) in
      pairs'.(i) <- (iv_i, u_j);
      pairs'.(j) <- (iv_j, u_i);
      push pairs'
    done
  done;
  (* Swap-in an unused processor. *)
  for j = 0 to m - 1 do
    for u = 0 to p - 1 do
      if not (Mapping.uses mapping u) then begin
        let pairs' = Array.copy pairs in
        let iv, _ = pairs.(j) in
        pairs'.(j) <- (iv, u);
        push pairs'
      end
    done
  done;
  (* Merge adjacent intervals (onto either processor). *)
  for j = 0 to m - 2 do
    let iv_l, u_l = pairs.(j) and iv_r, u_r = pairs.(j + 1) in
    let merged =
      Interval.make ~first:(Interval.first iv_l) ~last:(Interval.last iv_r)
    in
    List.iter
      (fun keep ->
        let pairs' =
          Array.append
            (Array.append (Array.sub pairs 0 j) [| (merged, keep) |])
            (Array.sub pairs (j + 2) (m - j - 2))
        in
        push pairs')
      [ u_l; u_r ]
  done;
  !acc

let max_steps = 1000

let improve ?(objective = Period_then_latency) ?(feasible = fun _ -> true)
    (inst : Instance.t) start =
  let rec descend steps (current : Solution.t) =
    if steps >= max_steps then current
    else begin
      let best_neighbour =
        List.fold_left
          (fun acc mapping ->
            let sol = Solution.of_mapping inst mapping in
            if not (feasible sol) then acc
            else
              match acc with
              | Some b when key objective b <= key objective sol -> acc
              | _ -> Some sol)
          None
          (neighbours inst current.Solution.mapping)
      in
      match best_neighbour with
      | Some sol when key objective sol < key objective current ->
        descend (steps + 1) sol
      | _ -> current
    end
  in
  descend 0 start
