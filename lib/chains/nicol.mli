(** Nicol's exact algorithm for homogeneous chains-to-chains.

    A second, independently-derived exact solver (after {!Dp}),
    following Nicol's probe-based scheme
    as described by Pinar & Aykanat (2004): walking left to right,
    processor [k] starting at element [i] binary-searches the smallest
    interval end [e] whose sum — used as a bound for the shared greedy
    {!Probe} over the remaining suffix — covers the rest of the chain
    with the remaining processors. Each such [sum(i..e)] is an
    achievable candidate bottleneck and the optimum is among them, so
    [O(p log n)] probes suffice — no ε-bisection. Each probe costs
    [O(p log n)]: the greedy walk binary-searches every cut and gives up
    past [p] intervals, and the tail maximum is a suffix-table lookup —
    [O(p² log² n)] overall, independent of the [O(n)] chain length after
    the prefix build. Every
    candidate is a {!Prefix.sum} value, so the test suite can check that
    it agrees with {!Dp} bit-for-bit (DESIGN.md §9). *)

val solve : float array -> p:int -> float * Partition.t
(** Same contract as {!Dp.solve}. *)
