
type t = {
  n : int;
  assignment : (Interval.t * int list) array;
}

let check_processors assignment =
  let seen = Hashtbl.create 16 in
  Array.iter
    (fun (_, procs) ->
      if procs = [] then invalid_arg "Deal_mapping: empty replica set";
      List.iter
        (fun u ->
          if u < 0 then invalid_arg "Deal_mapping: negative processor index";
          if Hashtbl.mem seen u then
            invalid_arg "Deal_mapping: processor enrolled twice";
          Hashtbl.add seen u ())
        procs)
    assignment

let make ~n assignment =
  if not (Interval.partition_of n (List.map fst assignment)) then
    invalid_arg "Deal_mapping.make: intervals must partition [1..n] in order";
  let assignment = Array.of_list assignment in
  check_processors assignment;
  { n; assignment }

let of_mapping mapping =
  make ~n:(Mapping.n mapping)
    (List.map (fun (iv, u) -> (iv, [ u ])) (Mapping.intervals mapping))

let to_mapping t =
  if Array.for_all (fun (_, procs) -> List.length procs = 1) t.assignment then
    Some
      (Mapping.make ~n:t.n
         (Array.to_list
            (Array.map (fun (iv, procs) -> (iv, List.hd procs)) t.assignment)))
  else None

let n t = t.n
let m t = Array.length t.assignment

let interval t j =
  if j < 0 || j >= m t then invalid_arg "Deal_mapping.interval: out of range";
  fst t.assignment.(j)

let replicas t j =
  if j < 0 || j >= m t then invalid_arg "Deal_mapping.replicas: out of range";
  snd t.assignment.(j)

let replication t j = List.length (replicas t j)

let processors t =
  Array.to_list t.assignment |> List.concat_map snd

let uses t u = List.mem u (processors t)

let replicate t ~j ~proc =
  if j < 0 || j >= m t then invalid_arg "Deal_mapping.replicate: out of range";
  if uses t proc then invalid_arg "Deal_mapping.replicate: processor enrolled twice";
  let assignment = Array.copy t.assignment in
  let iv, procs = assignment.(j) in
  assignment.(j) <- (iv, procs @ [ proc ]);
  { t with assignment }

let replace t ~j parts =
  if j < 0 || j >= m t then invalid_arg "Deal_mapping.replace: out of range";
  if parts = [] then invalid_arg "Deal_mapping.replace: empty replacement";
  let target = fst t.assignment.(j) in
  let rec tiles expected = function
    | [] -> expected = Interval.last target + 1
    | (iv, _) :: rest ->
      Interval.first iv = expected && tiles (Interval.last iv + 1) rest
  in
  if not (tiles (Interval.first target) parts) then
    invalid_arg "Deal_mapping.replace: parts must tile the replaced interval";
  let before = Array.to_list (Array.sub t.assignment 0 j) in
  let after = Array.to_list (Array.sub t.assignment (j + 1) (m t - j - 1)) in
  make ~n:t.n (before @ parts @ after)

let valid_on t platform =
  List.for_all (fun u -> u >= 0 && u < Platform.p platform) (processors t)

let to_string t =
  let part (iv, procs) =
    Printf.sprintf "%s->{%s}" (Interval.to_string iv)
      (String.concat "," (List.map (Printf.sprintf "P%d") procs))
  in
  "{" ^ String.concat ", " (List.map part (Array.to_list t.assignment)) ^ "}"
