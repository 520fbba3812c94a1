type t = {
  n : int;
  assignment : (Interval.t * int) array; (* in pipeline order *)
}

let check_procs assignment =
  let seen = Hashtbl.create 16 in
  Array.iter
    (fun (_, u) ->
      if u < 0 then invalid_arg "Mapping: negative processor index";
      if Hashtbl.mem seen u then
        invalid_arg "Mapping: processor assigned to several intervals";
      Hashtbl.add seen u ())
    assignment

let make ~n assignment =
  let ivs = List.map fst assignment in
  if not (Interval.partition_of n ivs) then
    invalid_arg "Mapping.make: intervals must partition [1..n] in order";
  let assignment = Array.of_list assignment in
  check_procs assignment;
  { n; assignment }

let single ~n ~proc = make ~n [ (Interval.make ~first:1 ~last:n, proc) ]

let one_to_one ~procs =
  let n = Array.length procs in
  make ~n (List.init n (fun i -> (Interval.singleton (i + 1), procs.(i))))

let of_cuts ~n ~cuts ~procs =
  let rec intervals start = function
    | [] -> [ Interval.make ~first:start ~last:n ]
    | c :: rest ->
      if c < start || c >= n then invalid_arg "Mapping.of_cuts: bad cut position";
      Interval.make ~first:start ~last:c :: intervals (c + 1) rest
  in
  let ivs = intervals 1 cuts in
  if List.length ivs <> List.length procs then
    invalid_arg "Mapping.of_cuts: need one processor per interval";
  make ~n (List.combine ivs procs)

let n t = t.n
let m t = Array.length t.assignment

let interval t j =
  if j < 0 || j >= m t then invalid_arg "Mapping.interval: index out of range";
  fst t.assignment.(j)

let proc t j =
  if j < 0 || j >= m t then invalid_arg "Mapping.proc: index out of range";
  snd t.assignment.(j)

let intervals t = Array.to_list t.assignment
let procs t = Array.map snd t.assignment

let proc_of_stage t k =
  if k < 1 || k > t.n then invalid_arg "Mapping.proc_of_stage: stage out of range";
  let rec find j =
    if Interval.mem (fst t.assignment.(j)) k then snd t.assignment.(j)
    else find (j + 1)
  in
  find 0

let interval_of_proc t u =
  Array.fold_left
    (fun acc (iv, v) -> if v = u then Some iv else acc)
    None t.assignment

let uses t u = Array.exists (fun (_, v) -> v = u) t.assignment

let replace t ~j parts =
  if j < 0 || j >= m t then invalid_arg "Mapping.replace: index out of range";
  if parts = [] then invalid_arg "Mapping.replace: empty replacement";
  let target = fst t.assignment.(j) in
  (* The parts must tile the replaced interval exactly. *)
  let rec tiles expected = function
    | [] -> expected = Interval.last target + 1
    | (iv, _) :: rest -> Interval.first iv = expected && tiles (Interval.last iv + 1) rest
  in
  if not (tiles (Interval.first target) parts) then
    invalid_arg "Mapping.replace: parts must tile the replaced interval";
  let before = Array.to_list (Array.sub t.assignment 0 j) in
  let after =
    Array.to_list (Array.sub t.assignment (j + 1) (m t - j - 1))
  in
  make ~n:t.n (before @ parts @ after)

let renumber procs t =
  make ~n:t.n (List.map (fun (iv, u) -> (iv, procs.(u))) (intervals t))

let migration app ~before ~after =
  let stages = ref 0 and volume = ref 0. in
  for k = 1 to Application.n app do
    if proc_of_stage before k <> proc_of_stage after k then begin
      incr stages;
      volume := !volume +. Application.delta app (k - 1)
    end
  done;
  (!stages, !volume)

let valid_on t platform =
  Array.for_all (fun (_, u) -> u >= 0 && u < Platform.p platform) t.assignment

let equal a b = a.n = b.n && a.assignment = b.assignment

let to_string t =
  let part (iv, u) = Printf.sprintf "%s->P%d" (Interval.to_string iv) u in
  "{" ^ String.concat ", " (List.map part (intervals t)) ^ "}"

let pp fmt t = Format.pp_print_string fmt (to_string t)
