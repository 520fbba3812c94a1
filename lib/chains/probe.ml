(* The leftmost-greedy walk over [from..n] under [bound]: the number of
   intervals it cuts, or None when some single element exceeds the
   bound (a NaN bound included) or when more than [cap] intervals would
   be needed. The cap check makes a probe O(cap log n): the walk gives
   up as soon as the greedy, and therefore minimal, interval count
   provably exceeds the cap, instead of cutting the whole tail first and
   counting afterwards. It builds no list. *)
let count ~from ~cap prefix ~bound =
  let n = Prefix.n prefix in
  if from < 1 || from > n then invalid_arg "Probe: from out of range";
  if cap < 1 then invalid_arg "Probe: cap must be >= 1";
  if not (Prefix.max_from prefix from <= bound) then None
  else begin
    (* Intervals [from..start-1] are cut into [count - 1] intervals;
       interval [count] starts at [start]. *)
    let rec walk start count =
      if count > cap then None
      else
        let e = Prefix.longest_fitting prefix ~from:start ~budget:bound in
        (* max_from <= bound guarantees e >= start. *)
        if e >= n then Some count else walk (e + 1) (count + 1)
    in
    walk from 1
  end

let min_intervals ?(from = 1) ?(cap = max_int) prefix ~bound =
  count ~from ~cap prefix ~bound

let feasible ?(from = 1) prefix ~p ~bound =
  if p < 1 then invalid_arg "Probe.feasible: p must be >= 1";
  count ~from ~cap:p prefix ~bound <> None

let partition prefix ~p ~bound =
  if p < 1 then invalid_arg "Probe.partition: p must be >= 1";
  if not (feasible prefix ~p ~bound) then None
  else begin
    (* The same walk again, now known to stop within p intervals,
       keeping the cuts for the witness. *)
    let n = Prefix.n prefix in
    let rec cuts start =
      let e = Prefix.longest_fitting prefix ~from:start ~budget:bound in
      if e >= n then [] else e :: cuts (e + 1)
    in
    Some (Partition.of_cuts ~n (cuts 1))
  end
