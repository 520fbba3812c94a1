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

let mem candidates value =
  let lo = ref 0 and hi = ref (Array.length candidates - 1) in
  if !hi < 0 then false
  else begin
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if candidates.(mid) < value then lo := mid + 1 else hi := mid
    done;
    candidates.(!lo) = value
  end

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

let floor candidates value =
  let count = Array.length candidates in
  if count = 0 || candidates.(0) > value then None
  else begin
    let lo = ref 0 and hi = ref (count - 1) in
    (* Invariant: candidates.(lo) <= value. *)
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if candidates.(mid) <= value then lo := mid else hi := mid - 1
    done;
    Some candidates.(!lo)
  end

(* Lazy candidate sets (DESIGN.md §11). At web scale the materialised
   array is O(n² · |speeds|) and unbuildable; but with uniform deltas
   every cycle-time is a weakly monotone image of the interval work sum
   W(d,e) — monotone in e, anti-monotone in d — so min/max/floor/ceiling
   over the implicit (d, e, config) lattice are answerable in
   O(n · |configs|) by the two-pointer sweeps of Cost.lattice_*, which
   evaluate the engine's own cycle expression at every comparison
   (never an algebraically rearranged form, which could disagree by one
   ulp). *)
module Set = struct
  type t =
    | Materialised of float array
    | Lattice of { cost : Cost.t; min_elt : float; max_elt : float }

  let default_max_materialised = 1 lsl 22

  let uniform_delta app =
    let n = Application.n app in
    let d0 = Application.delta app 0 in
    let ok = ref true in
    for k = 1 to n do
      if Application.delta app k <> d0 then ok := false
    done;
    !ok

  let of_engine ?(max_materialised = default_max_materialised) cost =
    let app = Cost.application cost in
    let n = Application.n app in
    let configs = Cost.candidate_configs cost in
    let triples = n * (n + 1) / 2 * Array.length configs in
    if triples <= max_materialised then Materialised (periods cost)
    else if uniform_delta app then begin
      let min_elt, max_elt = Cost.lattice_bounds cost in
      Lattice { cost; min_elt; max_elt }
    end
    else
      (* Non-uniform deltas break the monotone-in-W argument; fall back
         to materialising even above the cap (documented in DESIGN.md
         §11 — no current caller hits this at scale). *)
      Materialised (periods cost)

  let of_array a = Materialised a

  let is_lazy = function Materialised _ -> false | Lattice _ -> true

  let min_elt = function
    | Materialised a -> if Array.length a = 0 then None else Some a.(0)
    | Lattice l -> Some l.min_elt

  let max_elt = function
    | Materialised a ->
      let c = Array.length a in
      if c = 0 then None else Some a.(c - 1)
    | Lattice l -> Some l.max_elt

  let floor t v =
    match t with
    | Materialised a -> floor a v
    | Lattice l -> Cost.lattice_floor l.cost v

  let ceiling t v =
    match t with
    | Materialised a -> ceiling a v
    | Lattice l -> Cost.lattice_ceiling l.cost v

  let mem t v =
    match t with
    | Materialised a -> mem a v
    | Lattice _ -> ( match floor t v with Some c -> c = v | None -> false)

  let force = function
    | Materialised a -> a
    | Lattice l -> periods l.cost
end
