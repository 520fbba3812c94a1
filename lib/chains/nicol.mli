(** Nicol's exact algorithm for homogeneous chains-to-chains.

    A second, independently-derived exact solver (after {!Dp}),
    following Nicol's probe-based scheme as described by Pinar &
    Aykanat (2004): walking left to right, processor [k] starting at
    element [i] searches the smallest interval end [e] whose sum, used
    as a bound for the shared greedy {!Probe} over the remaining suffix,
    covers the rest of the chain with the remaining processors. Each
    such [sum(i..e)] is an achievable candidate bottleneck and the
    optimum [B*] is among them, so no ε-bisection is needed. Every
    candidate is a {!Prefix.sum} value, so the test suite checks that it
    agrees with {!Dp} bit for bit (DESIGN.md §9).

    {2 The bracket}

    The search keeps [B*] bracketed in [(lb, best\]]: [best] is the
    smallest candidate so far, and [lb] the largest bound of any walk
    that failed. For processor [k] at [i], with [fixed_max] the largest
    sum of the intervals already fixed:
    - it stops when [fixed_max >= best];
    - [h] is the first end with [sum(i, h) >= best], or [n] if there is
      none (one {!Prefix.longest_fitting} at [Float.pred best]); if the
      walk at [h] fails, the search stops;
    - otherwise it binary-searches only the ends in [\[l, h\]], where
      [l] is the first end with [sum(i, l) > lb]: every end whose sum is
      at most [lb] is answered infeasible without a walk.

    {2 Why it is exact}

    - Every candidate comes from a walk that succeeded, or from the
      empty tail at [e = n], so it is the bottleneck of a real partition
      into at most [p] intervals and [best] never drops below [B*].
    - While [best > B*], the intervals fixed so far are the first
      [k - 1] intervals of the leftmost-greedy partition at [B*], and
      [lb < B*]. Let [g] end that partition's [k]-th interval. The end
      [g + 1] is feasible (its sum exceeds [B*], and the greedy's own
      remaining intervals cover the shorter tail), so the walk at [h]
      succeeds, and [l <= g + 1] because [sum(i, g + 1) > B* > lb].
      The search therefore lands on an end [e <= g], whose candidate
      is at most [B*] and real, hence exactly [B*]; or on [g + 1],
      which moves the scan to the greedy's next interval. In that case
      every failed walk was at an end [<= g] with a sum below [B*]:
      were [sum(i, g) = B*], the walk at [g] would be the greedy's
      own tail and succeed.
    - Once [best = B*] nothing lowers it, and a wrong "infeasible" can
      only move a search to the right.
    - The stops lose nothing: past [fixed_max >= best] every candidate
      is at least [fixed_max]; if the walk at [h] fails, every later
      [fixed_max] is at least [sum(i, h) >= best].

    The greedy probe is exact in floating point, because a prefix
    difference is monotone in both of its ends. So the bottleneck is
    [B*] bit for bit, and the witness is
    [Probe.partition ~bound:B*], as before the bracket; a test law
    checks both against the unbracketed search, kept in the tests.

    {2 Cost}

    A walk costs O(p log n) ({!Probe.feasible}), and in the worst case
    each processor still binary-searches its whole bracket. Measured on
    [Scaling.instance] chains at seeds 1, 2, 3 and 2007: at
    20 000 × 400 a solve makes 129–405 walks and 42 000–84 000
    {!Prefix.longest_fitting} steps, where the unbracketed search made
    about 5 160 walks and 590 000 steps; at 50 000 × 1 000, 85–803 walks
    against about 14 240. *)

val solve : float array -> p:int -> float * Partition.t
(** Same contract as {!Dp.solve}. *)
