module Interval = Pipeline_model.Interval

type assignment = (Interval.t * int) list

let max_procs = 16

let check ~n ~p =
  if n < 1 then invalid_arg "Subset_dp: n must be >= 1";
  if p < 1 then invalid_arg "Subset_dp: p must be >= 1";
  if p > max_procs then
    invalid_arg (Printf.sprintf "Subset_dp: p must be <= %d (got %d)" max_procs p)

let popcount set =
  let rec go set acc = if set = 0 then acc else go (set lsr 1) (acc + (set land 1)) in
  go set 0

(* Shared table-filling routine. [combine prev interval_cost] merges the
   cost of the prefix with the cost of the appended interval; [accept]
   filters interval costs (the cap of the constrained variant). *)
let run ~n ~p ~cost ~combine ~accept =
  let size = 1 lsl p in
  let best = Array.make_matrix size (n + 1) infinity in
  let parent_cut = Array.make_matrix size (n + 1) (-1) in
  let parent_proc = Array.make_matrix size (n + 1) (-1) in
  best.(0).(0) <- 0.;
  for set = 1 to size - 1 do
    let intervals = popcount set in
    if intervals <= n then
      for k = intervals to n do
        for u = 0 to p - 1 do
          if set land (1 lsl u) <> 0 then begin
            let rest = set lxor (1 lsl u) in
            for i = intervals - 1 to k - 1 do
              let prev = best.(rest).(i) in
              if prev < infinity then begin
                let c = cost ~d:(i + 1) ~e:k ~u in
                if accept c then begin
                  let total = combine prev c in
                  if total < best.(set).(k) then begin
                    best.(set).(k) <- total;
                    parent_cut.(set).(k) <- i;
                    parent_proc.(set).(k) <- u
                  end
                end
              end
            done
          end
        done
      done
  done;
  (* Best subset covering all n stages. *)
  let best_set = ref 0 and best_val = ref infinity in
  for set = 1 to size - 1 do
    if best.(set).(n) < !best_val then begin
      best_val := best.(set).(n);
      best_set := set
    end
  done;
  if !best_val = infinity then None
  else begin
    let rec walk set k acc =
      if k = 0 then acc
      else
        let i = parent_cut.(set).(k) and u = parent_proc.(set).(k) in
        let iv = Interval.make ~first:(i + 1) ~last:k in
        walk (set lxor (1 lsl u)) i ((iv, u) :: acc)
    in
    Some (!best_val, walk !best_set n [])
  end

let minimise_bottleneck ~n ~p ~cost =
  check ~n ~p;
  match run ~n ~p ~cost ~combine:Float.max ~accept:(fun _ -> true) with
  | Some result -> result
  | None -> assert false (* unconstrained: the one-interval mapping exists *)

let minimise_sum_under_cap ~n ~p ~cap_cost ~sum_cost ~cap =
  check ~n ~p;
  (* Cost pairs: accept on the cap, accumulate the sum. Evaluating both
     costs per transition keeps the generic core single-purpose. *)
  let cost ~d ~e ~u =
    if Pipeline_util.Tol.meets (cap_cost ~d ~e ~u) cap then sum_cost ~d ~e ~u
    else infinity
  in
  run ~n ~p ~cost ~combine:( +. ) ~accept:(fun c -> c < infinity)
