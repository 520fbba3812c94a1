(* The finite candidate sets behind the exact threshold searches
   (DESIGN.md §9, §13). Every value is produced by the engine's own cost
   expressions — Cost.config_cycle for periods, cycle /. float r for
   deal periods — so a threshold found here is bit-identical to the
   objective value of the mapping that realises it. Platform kind is
   dispatched once, in Cost.candidate_configs: comm-homogeneous
   platforms enumerate speed representatives, fully heterogeneous ones
   the (speed, boundary-in, boundary-out) configuration family. *)

let of_values values =
  let a = Array.of_list (List.sort_uniq compare values) in
  if Array.exists (fun v -> Float.is_nan v) a then
    invalid_arg "Candidates.of_values: NaN candidate";
  a

let enumerate cost =
  let n = Application.n (Cost.application cost) in
  let configs = Cost.candidate_configs cost in
  let acc = ref [] in
  for d = 1 to n do
    for e = d to n do
      Array.iter (fun c -> acc := Cost.config_cycle cost ~d ~e c :: !acc) configs
    done
  done;
  of_values !acc

let periods cost = Cost.cached_candidates cost ~build:enumerate

(* A replicated interval contributes (worst replica cycle) / r, so the
   deal candidates are the plain ones divided by every feasible
   replication factor — the same float expression Cost.deal_period
   evaluates. *)
let enumerate_deal cost =
  let plain = periods cost in
  let p = Platform.p (Cost.platform cost) in
  let acc = ref [] in
  Array.iter
    (fun c ->
      for r = 1 to p do
        acc := c /. float_of_int r :: !acc
      done)
    plain;
  of_values !acc

let deal_periods cost = Cost.cached_deal_candidates cost ~build:enumerate_deal

let ceiling candidates value =
  let count = Array.length candidates in
  if count = 0 || candidates.(count - 1) < value then None
  else begin
    let lo = ref 0 and hi = ref (count - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if candidates.(mid) < value then lo := mid + 1 else hi := mid
    done;
    Some candidates.(!lo)
  end

(* Past 2²² interval-config triples the array no longer fits in memory
   (DESIGN.md §11); with uniform deltas Cost.lattice_ceiling answers the
   same queries without it. *)
let oversized cost =
  let n = Application.n (Cost.application cost) in
  let count = n * (n + 1) / 2 * Array.length (Cost.candidate_configs cost) in
  if count > 1 lsl 22 then Some count else None

let too_large cost =
  let app = Cost.application cost in
  oversized cost <> None
  && Array.for_all (( = ) (Application.delta app 0)) (Application.deltas app)

let period_ceiling cost =
  if too_large cost then Cost.lattice_ceiling cost else ceiling (periods cost)
