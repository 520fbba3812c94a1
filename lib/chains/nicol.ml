(* Nicol's probe-based parametric scheme (Pinar & Aykanat 2004):
   processor k starting at element i binary-searches the smallest prefix
   end e whose sum, used as a bound, lets the greedy probe cover the
   rest of the chain with the remaining processors. That sum is an
   achievable candidate bottleneck; the optimum with a shorter first
   interval is realised further right, so the scan advances with one
   processor fewer. All feasibility questions go through the shared
   {!Probe}. *)

let solve a ~p =
  if p < 1 then invalid_arg "Nicol.solve: p must be >= 1";
  let prefix = Prefix.make a in
  let n = Prefix.n prefix in
  let p = min p n in
  let best = ref (Prefix.total prefix) (* p = 1: one interval takes all *) in
  let fixed_max = ref 0. in
  let i = ref 1 in
  (try
     for k = 1 to p - 1 do
       let remaining = p - k in
       (* Smallest e with [e+1..n] coverable by [remaining] intervals
          under bound sum(i, e); e = n always qualifies (empty rest). *)
       let feasible_tail e =
         e >= n
         || Probe.feasible ~from:(e + 1) prefix ~p:remaining
              ~bound:(Prefix.sum prefix !i e)
       in
       let lo = ref !i and hi = ref n in
       while !lo < !hi do
         let mid = (!lo + !hi) / 2 in
         if feasible_tail mid then hi := mid else lo := mid + 1
       done;
       let e = !lo in
       let candidate = Float.max !fixed_max (Prefix.sum prefix !i e) in
       if candidate < !best then best := candidate;
       (* Continue as if processor k took the strict prefix [i..e-1]:
          any better bottleneck keeps the first interval under sum(i,e). *)
       if e = !i then raise Exit (* element i alone is a lower bound: done *)
       else begin
         fixed_max := Float.max !fixed_max (Prefix.sum prefix !i (e - 1));
         i := e
       end
     done;
     (* Last processor takes everything still unassigned. *)
     let final = Float.max !fixed_max (Prefix.sum prefix !i n) in
     if final < !best then best := final
   with Exit -> ());
  match Probe.partition prefix ~p ~bound:!best with
  | Some partition -> (!best, partition)
  | None -> assert false (* best was probed (or is trivially) feasible *)
