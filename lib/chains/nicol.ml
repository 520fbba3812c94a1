(* Nicol's probe-based parametric scheme (Pinar & Aykanat 2004), with
   the optimum kept bracketed in (lb, best]: nicol.mli describes the
   search and why the bracket never hides the optimum. *)

let solve a ~p =
  if p < 1 then invalid_arg "Nicol.solve: p must be >= 1";
  let prefix = Prefix.make a in
  let n = Prefix.n prefix in
  let p = min p n in
  let best = ref (Prefix.total prefix) (* p = 1: one interval takes all *) in
  (* The largest bound of any walk that failed; none has yet. *)
  let lb = ref Float.neg_infinity in
  let fixed_max = ref 0. in
  let i = ref 1 in
  (try
     for k = 1 to p - 1 do
       (* Every later candidate is at least [fixed_max]. *)
       if !fixed_max >= !best then raise Exit;
       let remaining = p - k in
       (* Can [e+1..n] be covered by [remaining] intervals under bound
          sum(i, e)? e = n always can (empty rest). *)
       let feasible_tail e =
         e >= n
         ||
         let bound = Prefix.sum prefix !i e in
         let ok = Probe.feasible ~from:(e + 1) prefix ~p:remaining ~bound in
         if not ok then lb := Float.max !lb bound;
         ok
       in
       (* The first end whose sum exceeds [bound], or n if none does. *)
       let first_above bound =
         min n (Prefix.longest_fitting prefix ~from:!i ~budget:bound + 1)
       in
       (* [best > fixed_max >= 0], so its predecessor is a valid budget. *)
       let h = first_above (Float.pred !best) in
       (* If even h fails, every later [fixed_max] reaches sum(i, h),
          which is at least [best]. *)
       if not (feasible_tail h) then raise Exit;
       let lo = ref (if !lb < 0. then !i else min h (first_above !lb)) in
       let hi = ref h in
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
