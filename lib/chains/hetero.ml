type solution = {
  bottleneck : float;
  partition : Partition.t;
  assignment : int array;
}

let check_inputs a speeds =
  if Array.length a = 0 then invalid_arg "Hetero: empty chain";
  if Array.length speeds = 0 then invalid_arg "Hetero: no speeds";
  Array.iter
    (fun s ->
      if not (Float.is_finite s) || s <= 0. then
        invalid_arg "Hetero: speeds must be finite and > 0")
    speeds

let objective a ~speeds sol =
  let prefix = Prefix.make a in
  let per_interval = Array.map (fun u -> speeds.(u)) sol.assignment in
  Partition.weighted_bottleneck prefix ~speeds:per_interval sol.partition

let exact_dp a ~speeds =
  check_inputs a speeds;
  let prefix = Prefix.make a in
  let bottleneck, intervals =
    Subset_dp.minimise_bottleneck ~n:(Prefix.n prefix) ~p:(Array.length speeds)
      ~cost:(fun ~d ~e ~u -> Prefix.sum prefix d e /. speeds.(u))
  in
  {
    bottleneck;
    partition = Array.of_list (List.map fst intervals);
    assignment = Array.of_list (List.map snd intervals);
  }
