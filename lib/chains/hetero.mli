(** Hetero-1D-Partition (paper §3, Definition 1).

    Partition [a_1 … a_n] into at most [p] consecutive intervals and
    injectively assign each interval a processor speed, minimising
    [max_k (Σ_{i∈I_k} a_i) / s_σ(k)]. Theorem 1 proves the decision
    version NP-complete, so the exact solver here is exponential in [p]
    — the processor-subset dynamic program {!Subset_dp} — and is meant
    for the modest [p] of the validation suite.

    Speeds are identified by their index in the [speeds] array; a
    {!solution} reports which speed serves each interval. *)

type solution = {
  bottleneck : float;      (** achieved [max load/speed] *)
  partition : Partition.t; (** the intervals, in chain order *)
  assignment : int array;  (** [assignment.(j)] = index into [speeds] of
                               the processor serving interval [j] *)
}

val objective : float array -> speeds:float array -> solution -> float
(** Recompute the bottleneck of a solution from scratch (used by tests to
    cross-check the solvers' reported value). *)

val exact_dp : float array -> speeds:float array -> solution
(** Optimal solution by {!Subset_dp.minimise_bottleneck} over (prefix
    length, processor subset), interval [d..e] on speed [u] costing
    [Prefix.sum d e /. speeds.(u)]: O(2^p · n² · p) time, O(2^p · n)
    space. Raises [Invalid_argument] when either input is empty, a speed
    is not finite and positive, or [speeds] has more than
    {!Subset_dp.max_procs} entries (the table would not fit). *)
