module Interval = Pipeline_model.Interval

type t = Interval.t array

let of_cuts ~n cuts =
  if n < 1 then invalid_arg "Partition.of_cuts: n must be >= 1";
  let rec build start = function
    | [] -> [ Interval.make ~first:start ~last:n ]
    | c :: rest ->
      if c < start || c >= n then invalid_arg "Partition.of_cuts: bad cut";
      Interval.make ~first:start ~last:c :: build (c + 1) rest
  in
  Array.of_list (build 1 cuts)

let size t = Array.length t

let loads prefix t =
  Array.map (fun iv -> Prefix.sum prefix (Interval.first iv) (Interval.last iv)) t

let weighted_bottleneck prefix ~speeds t =
  if Array.length speeds <> Array.length t then
    invalid_arg "Partition.weighted_bottleneck: one speed per interval required";
  let worst = ref 0. in
  Array.iteri
    (fun j iv ->
      let load =
        Prefix.sum prefix (Interval.first iv) (Interval.last iv) /. speeds.(j)
      in
      worst := Float.max !worst load)
    t;
  !worst
