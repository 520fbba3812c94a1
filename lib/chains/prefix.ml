type t = {
  prefix : float array; (* prefix.(k) = a_1 + … + a_k *)
  suffix_max : float array; (* suffix_max.(k) = max (0., a_k, …, a_n) *)
}

let make a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Prefix.make: empty chain";
  Array.iter
    (fun v ->
      if not (Float.is_finite v) || v < 0. then
        invalid_arg "Prefix.make: elements must be finite and >= 0")
    a;
  let prefix = Array.make (n + 1) 0. in
  for k = 1 to n do
    prefix.(k) <- prefix.(k - 1) +. a.(k - 1)
  done;
  (* Elements are read back as prefix differences everywhere (sums,
     candidates, probes); compute the maxima in the same arithmetic, or
     they can sit one ulp above every realisable interval sum and wrongly
     reject the optimal bound. [Float.max] over finite non-negative
     values is pure selection, so the right-to-left fold below agrees
     bit-for-bit with any left fold over the same elements. *)
  let suffix_max = Array.make (n + 2) 0. in
  for k = n downto 1 do
    suffix_max.(k) <- Float.max (prefix.(k) -. prefix.(k - 1)) suffix_max.(k + 1)
  done;
  { prefix; suffix_max }

let n t = Array.length t.prefix - 1

let element t i =
  if i < 1 || i > n t then invalid_arg "Prefix.element: out of range";
  t.prefix.(i) -. t.prefix.(i - 1)

let sum t d e =
  if d < 1 || e > n t then invalid_arg "Prefix.sum: out of range";
  if d > e then 0. else t.prefix.(e) -. t.prefix.(d - 1)

let total t = t.prefix.(n t)

let longest_fitting t ~from ~budget =
  if from < 1 || from > n t then invalid_arg "Prefix.longest_fitting: bad from";
  if not (budget >= 0.) then
    invalid_arg "Prefix.longest_fitting: budget must be >= 0";
  (* Find the largest e with prefix.(e) - prefix.(from-1) <= budget. The
     subtraction form matters: interval sums everywhere else (candidates,
     bottlenecks) are computed as prefix differences, and the additive
     form prefix.(e) <= prefix.(from-1) + budget can disagree by one ulp,
     breaking the exactness of the parametric search. *)
  let base = t.prefix.(from - 1) in
  let fits e = t.prefix.(e) -. base <= budget in
  let lo = ref (from - 1) and hi = ref (n t) in
  (* Invariant: fits !lo (prefix.(from-1) - base = 0 <= budget); prefix
     values are non-decreasing, so [fits] is monotone in [e]. *)
  if fits !hi then !hi
  else begin
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if fits mid then lo := mid else hi := mid
    done;
    !lo
  end

let max_from t k =
  if k < 1 || k > n t then invalid_arg "Prefix.max_from: out of range";
  t.suffix_max.(k)
