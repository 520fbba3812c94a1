(** Exact bi-criteria solvers for communication-homogeneous platforms.

    Exponential in [p] (processor-subset DP, see {!Chains.Subset_dp});
    intended as ground truth for validation-sized instances — the
    problems are NP-hard (Theorem 2), so no polynomial exact algorithm is
    expected.
    All functions raise [Invalid_argument] on non-communication-
    homogeneous platforms or [p > Chains.Subset_dp.max_procs]. *)

open Pipeline_model
open Pipeline_core

val min_period : Instance.t -> Solution.t
(** The mapping with the smallest achievable period (no latency
    constraint). *)

val min_latency_under_period : Instance.t -> period:float -> Solution.t option
(** Smallest latency among mappings of period [≤ period]; [None] when the
    period threshold itself is unachievable. *)

val min_period_under_latency : Instance.t -> latency:float -> Solution.t option
(** Smallest period among mappings of latency [≤ latency]. Implemented by
    a binary search over the O(n²p) candidate periods, re-solving
    {!min_latency_under_period} at each probe
    ({!Pipeline_model.Threshold.search_periods}: past [2²²]
    interval-speed pairs on uniform message sizes, on the lattice,
    without building them). *)

val pareto : Instance.t -> Solution.t list
(** The full period/latency Pareto front, sorted by increasing period
    (hence decreasing latency). Obtained by sweeping the candidate
    periods; each front point is an optimal trade-off, and values within
    the acceptance slack tie ({!Pipeline_core.Solution.front}). Raises
    [Invalid_argument] before enumerating past {!Candidates.oversized}. *)
