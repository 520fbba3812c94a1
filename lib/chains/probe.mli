(** Greedy feasibility probe for the homogeneous chains-to-chains problem.

    [PROBE(B)]: can [\[from..n\]] be partitioned into at most [p]
    consecutive intervals with every interval sum at most [B]? Because
    elements are non-negative, cutting each interval as late as possible
    is optimal, so the greedy answer is exact. This is the classic
    building block of the parametric-search algorithms surveyed by Pinar
    & Aykanat (2004) — and the probe behind {!Nicol} (DESIGN.md §9).

    [from] defaults to 1 (the whole chain); suffix probes ([from > 1])
    serve {!Nicol}'s recursive scheme. {!feasible} and {!min_intervals}
    count the greedy's intervals in one walk that builds no list; only
    {!partition} keeps the cuts, for its witness.

    A bound below every element, a negative bound and a NaN bound are
    all infeasible: [false] or [None]. *)

val feasible : ?from:int -> Prefix.t -> p:int -> bound:float -> bool
(** O(p log n): the tail maximum is an O(1) suffix-table lookup
    ({!Prefix.max_from}) and the greedy walk aborts after [p] intervals,
    so an infeasible probe never cuts the whole tail. [p ≥ 1] and
    [1 ≤ from ≤ n] required. *)

val partition : Prefix.t -> p:int -> bound:float -> Partition.t option
(** The leftmost-greedy witness partition of the whole chain (at most
    [p] intervals), or [None] when infeasible. The witness may use fewer
    than [p] intervals. *)

val min_intervals : ?from:int -> ?cap:int -> Prefix.t -> bound:float -> int option
(** Smallest number of intervals achieving bottleneck [≤ bound];
    [None] when a single element already exceeds [bound], or when the
    count would exceed [cap] ([cap ≥ 1]; the walk stops early, keeping
    the probe O(cap log n)). *)
