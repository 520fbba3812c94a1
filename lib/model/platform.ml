type links =
  | Uniform of float
  | Matrix of float array array

type t = {
  speeds : float array;
  links : links;
  io : float array;
}

let check_positive name v =
  if not (Float.is_finite v) || v <= 0. then
    invalid_arg (Printf.sprintf "Platform: %s must be finite and > 0" name)

let check_speeds speeds =
  if Array.length speeds = 0 then invalid_arg "Platform: no processors";
  Array.iter (check_positive "speed") speeds

let comm_homogeneous ?io_bandwidth ~bandwidth speeds =
  check_speeds speeds;
  check_positive "bandwidth" bandwidth;
  let io = Option.value io_bandwidth ~default:bandwidth in
  check_positive "io_bandwidth" io;
  {
    speeds = Array.copy speeds;
    links = Uniform bandwidth;
    io = Array.make (Array.length speeds) io;
  }

let fully_homogeneous ?io_bandwidth ~speed ~bandwidth p =
  if p <= 0 then invalid_arg "Platform.fully_homogeneous: p must be > 0";
  comm_homogeneous ?io_bandwidth ~bandwidth (Array.make p speed)

let fully_heterogeneous ?io_bandwidths ~bandwidths speeds =
  check_speeds speeds;
  let p = Array.length speeds in
  if Array.length bandwidths <> p then
    invalid_arg "Platform.fully_heterogeneous: bandwidth matrix must be p x p";
  Array.iter
    (fun row ->
      if Array.length row <> p then
        invalid_arg "Platform.fully_heterogeneous: bandwidth matrix must be p x p")
    bandwidths;
  for u = 0 to p - 1 do
    for v = 0 to p - 1 do
      if u <> v then begin
        check_positive "bandwidth" bandwidths.(u).(v);
        if bandwidths.(u).(v) <> bandwidths.(v).(u) then
          invalid_arg "Platform.fully_heterogeneous: matrix must be symmetric"
      end
    done
  done;
  let row_max u =
    let m = ref 0. in
    for v = 0 to p - 1 do
      if v <> u then m := Float.max !m bandwidths.(u).(v)
    done;
    if !m = 0. then 1. (* single-processor platform: I/O still needs a rate *)
    else !m
  in
  let io =
    match io_bandwidths with
    | Some a ->
      if Array.length a <> p then
        invalid_arg "Platform.fully_heterogeneous: io_bandwidths must have length p";
      Array.iter (check_positive "io_bandwidth") a;
      Array.copy a
    | None -> Array.init p row_max
  in
  {
    speeds = Array.copy speeds;
    links = Matrix (Array.map Array.copy bandwidths);
    io;
  }

let scale_rates ~factor t =
  if not (Float.is_finite factor) || factor <= 0. then
    invalid_arg "Platform.scale_rates: factor must be finite and > 0";
  {
    speeds = Array.map (fun s -> s *. factor) t.speeds;
    links =
      (match t.links with
      | Uniform b -> Uniform (b *. factor)
      | Matrix m -> Matrix (Array.map (Array.map (fun b -> b *. factor)) m));
    io = Array.map (fun b -> b *. factor) t.io;
  }

let p t = Array.length t.speeds

let speed t u =
  if u < 0 || u >= p t then invalid_arg "Platform.speed: processor out of range";
  t.speeds.(u)

let speeds t = Array.copy t.speeds

let bandwidth t u v =
  let pr = p t in
  if u < 0 || u >= pr || v < 0 || v >= pr then
    invalid_arg "Platform.bandwidth: processor out of range";
  if u = v then infinity
  else match t.links with Uniform b -> b | Matrix m -> m.(u).(v)

let io_bandwidth t u =
  if u < 0 || u >= p t then
    invalid_arg "Platform.io_bandwidth: processor out of range";
  t.io.(u)

let is_comm_homogeneous t =
  match t.links with
  | Uniform b -> Array.for_all (fun io -> io = b) t.io
  | Matrix m ->
    let pr = p t in
    if pr = 1 then true
    else
      let b0 = m.(0).(1) in
      let ok = ref true in
      for u = 0 to pr - 1 do
        for v = 0 to pr - 1 do
          if u <> v && m.(u).(v) <> b0 then ok := false
        done
      done;
      !ok && Array.for_all (fun io -> io = b0) t.io

let with_speeds t speeds =
  let bandwidth = if p t > 1 then bandwidth t 0 1 else io_bandwidth t 0 in
  comm_homogeneous ~io_bandwidth:(io_bandwidth t 0) ~bandwidth speeds

let restrict t procs = with_speeds t (Array.map (speed t) procs)

let fastest t =
  let best = ref 0 in
  Array.iteri (fun u s -> if s > t.speeds.(!best) then best := u) t.speeds;
  !best

let by_decreasing_speed t =
  let idx = Array.init (p t) (fun u -> u) in
  Array.stable_sort
    (fun u v ->
      match compare t.speeds.(v) t.speeds.(u) with 0 -> compare u v | c -> c)
    idx;
  idx

let equal a b =
  a.speeds = b.speeds && a.io = b.io
  &&
  match (a.links, b.links) with
  | Uniform x, Uniform y -> x = y
  | Matrix x, Matrix y -> x = y
  | Uniform _, Matrix _ | Matrix _, Uniform _ -> false

let pp fmt t =
  let kind =
    match t.links with
    | Uniform b -> Printf.sprintf "comm-hom(b=%g)" b
    | Matrix _ -> "fully-het"
  in
  Format.fprintf fmt "platform[p=%d; %s; s=%s]" (p t) kind
    (String.concat ","
       (Array.to_list (Array.map (fun s -> Printf.sprintf "%g" s) t.speeds)))
