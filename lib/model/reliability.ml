type t = float array

let make f =
  Array.iter
    (fun x ->
      if not (x >= 0. && x <= 1.) then
        invalid_arg "Reliability.make: failure probabilities must be in [0,1]")
    f;
  Array.copy f

let uniform ~p f =
  if p < 1 then invalid_arg "Reliability.uniform: p must be >= 1";
  make (Array.make p f)

let p t = Array.length t

let failure t u =
  if u < 0 || u >= Array.length t then
    invalid_arg "Reliability.failure: processor out of range";
  t.(u)

let success t u = 1. -. failure t u

let group_failure t procs =
  List.fold_left (fun acc u -> acc *. failure t u) 1. procs

let group_success t procs =
  List.fold_left (fun acc u -> acc *. success t u) 1. procs

let mapping_success t mapping =
  Array.fold_left (fun acc u -> acc *. success t u) 1. (Mapping.procs mapping)

let mapping_failure t mapping = 1. -. mapping_success t mapping
