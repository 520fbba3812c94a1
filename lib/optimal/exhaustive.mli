(** Brute-force enumeration of every interval mapping.

    Enumerates all partitions of [\[1..n\]] into [m] intervals and all
    injective assignments of [m] processors, scoring each with the full
    {!Pipeline_model.Metrics} cost model — so, unlike {!Bicriteria}, it
    also works on fully heterogeneous platforms. Cost grows as
    [Σ_m C(n-1, m-1) · p!/(p-m)!]; a guard rejects instances whose
    estimated enumeration exceeds [10^7] mappings. Validation only.

    The solvers expand the enumeration tree breadth-first into a
    deterministic frontier of independent subtree tasks
    ({!Pipeline_util.Pool.fan_out}) and run the frontier on the domain
    pool; task-local results merge in frontier order with
    first-seen-wins tie-breaking, and the frontier preserves the
    sequential enumeration order, so every answer — including which of
    several equal-cost optima is returned — is bit-identical to the
    sequential enumeration at any pool width and any frontier size
    (DESIGN.md §14). *)

open Pipeline_model
open Pipeline_core

val count_mappings : n:int -> p:int -> float
(** Estimated number of interval mappings of the instance size. *)

val guard : float
(** Enumeration guard: instances whose {!count_mappings} estimate
    exceeds this are rejected ([10^7]). A property of the instance
    alone — independent of [--jobs]. *)

val oversized : n:int -> p:int -> string option
(** [Some diagnostic] when the instance size breaks {!guard} — the one
    wording shared by the CLI's exit-2 rejection and the serve daemon's
    HTTP 400 body; [None] when the enumeration is admissible. *)

val iter_mappings : Instance.t -> (Mapping.t -> unit) -> unit
(** Enumerate every interval mapping (raises [Invalid_argument] when the
    estimate exceeds the guard). *)

val min_period : Instance.t -> Solution.t
val min_latency : Instance.t -> Solution.t

val min_latency_under_period : Instance.t -> period:float -> Solution.t option
val min_period_under_latency : Instance.t -> latency:float -> Solution.t option

val pareto : Instance.t -> Solution.t list
(** Non-dominated (period, latency) mappings, sorted by increasing
    period; values within the acceptance slack tie
    ({!Pipeline_core.Solution.front}). *)
