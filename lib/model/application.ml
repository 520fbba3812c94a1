type t = {
  works : float array;  (* w_1 .. w_n stored at indices 0 .. n-1 *)
  deltas : float array; (* δ_0 .. δ_n stored at indices 0 .. n *)
  labels : string array option;
  prefix : float array; (* prefix.(k) = Σ_{i=1..k} w_i, prefix.(0) = 0 *)
}

let check_non_negative name a =
  Array.iter
    (fun v ->
      if not (Float.is_finite v) || v < 0. then
        invalid_arg (Printf.sprintf "Application.make: %s must be finite and >= 0" name))
    a

let make ?labels ~deltas works =
  let n = Array.length works in
  if n = 0 then invalid_arg "Application.make: empty pipeline";
  if Array.length deltas <> n + 1 then
    invalid_arg "Application.make: deltas must have length n+1";
  (match labels with
  | Some l when Array.length l <> n ->
    invalid_arg "Application.make: labels must have length n"
  | _ -> ());
  check_non_negative "works" works;
  check_non_negative "deltas" deltas;
  let prefix = Array.make (n + 1) 0. in
  for k = 1 to n do
    prefix.(k) <- prefix.(k - 1) +. works.(k - 1)
  done;
  {
    works = Array.copy works;
    deltas = Array.copy deltas;
    labels = Option.map Array.copy labels;
    prefix;
  }

let uniform ~n ~work ~delta =
  make ~deltas:(Array.make (n + 1) delta) (Array.make n work)

let of_stages specs ~delta0 =
  let n = List.length specs in
  if n = 0 then invalid_arg "Application.of_stages: empty pipeline";
  let works = Array.make n 0. and deltas = Array.make (n + 1) 0. in
  deltas.(0) <- delta0;
  List.iteri
    (fun i (w, d) ->
      works.(i) <- w;
      deltas.(i + 1) <- d)
    specs;
  make ~deltas works

let n t = Array.length t.works

let work t k =
  if k < 1 || k > n t then invalid_arg "Application.work: stage out of range";
  t.works.(k - 1)

let delta t k =
  if k < 0 || k > n t then invalid_arg "Application.delta: index out of range";
  t.deltas.(k)

let label t k =
  if k < 1 || k > n t then invalid_arg "Application.label: stage out of range";
  match t.labels with Some l -> l.(k - 1) | None -> Printf.sprintf "S%d" k

let work_sum t d e =
  if d < 1 || e > n t || d > e then
    invalid_arg "Application.work_sum: invalid interval";
  t.prefix.(e) -. t.prefix.(d - 1)

let total_work t = t.prefix.(n t)

let prefix_sums t = t.prefix

let works t = Array.copy t.works
let deltas t = Array.copy t.deltas

let equal a b = a.works = b.works && a.deltas = b.deltas

let float_list a =
  String.concat "," (Array.to_list (Array.map (fun v -> Printf.sprintf "%g" v) a))

let to_compact_string t =
  Printf.sprintf "pipeline[n=%d; w=%s; d=%s]" (n t) (float_list t.works)
    (float_list t.deltas)

let pp fmt t = Format.pp_print_string fmt (to_compact_string t)
