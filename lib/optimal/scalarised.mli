(** Scalarised (weighted-sum) objective: the paper's introduction also
    allows optimising "a combination" of throughput and latency.

    For a weight [alpha ∈ [0,1]] the objective is
    [alpha·period + (1-alpha)·latency]. Every minimiser of a positive
    weighted sum lies on the period/latency Pareto front, so the exact
    solver scans the front; the heuristic one scans the solutions H1
    produces along a threshold sweep. *)

open Pipeline_model
open Pipeline_core

val value : alpha:float -> Solution.t -> float
(** [alpha·period + (1-alpha)·latency]. *)

val best_of : alpha:float -> Solution.t list -> Solution.t option
(** Smallest scalarised value in a list ([None] on empty input). Raises
    [Invalid_argument] when [alpha] is outside [\[0,1\]]. *)

val optimal : Instance.t -> alpha:float -> Solution.t
(** Exact optimum (exponential in [p], via {!Bicriteria.pareto}). *)

val heuristic : Instance.t -> alpha:float -> Solution.t
(** Polynomial: sweep 20 period thresholds between the instance's
    trivial bounds with H1 ({!Pipeline_core.Sp_mono_p}) and keep the
    best scalarised solution. Always succeeds: the single-processor
    threshold is feasible. *)
