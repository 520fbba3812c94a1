(** Tri-criteria mapping: latency under a period bound {e and} a
    failure-probability bound.

    The paper optimises (period, latency); the fault-tolerance extension
    adds the mapping's failure probability
    ({!Pipeline_model.Reliability}, {!Pipeline_model.Cost.failure}) as a third
    criterion. Following the paper's methodology of fixing all but one
    criterion, the heuristic {e minimises latency} subject to

    {ul
    {- [period ≤ period] bound (round-robin deal period), and}
    {- [failure ≤ failure] bound.}}

    Strategy: start from the splitting-and-dealing solution of
    {!Pipeline_deal.Deal_heuristic.minimise_latency_under_period} — the
    best known latency under the period bound alone — then, while the
    failure bound is violated, greedily {e replicate}: among all
    (interval, unused processor) pairs whose added replica keeps the
    period within bound, enrol the one yielding the lowest resulting
    failure probability (ties: lowest latency, then first in
    (interval, processor) order — deterministic). Replication is the
    only reliability-improving move available to an interval mapping
    (an interval survives while any replica survives), and each step
    enrols one new processor, so the loop ends after at most [p] steps.
    If the bound is still violated when no step strictly decreases the
    failure probability, the instance is declared infeasible ([None]) —
    the heuristic never returns a solution violating either bound, a
    property the test suite checks against the exhaustive oracle
    ([Ft_exhaustive]). *)

open Pipeline_model

type solution = {
  mapping : Deal_mapping.t;
  period : float;   (** round-robin deal period *)
  latency : float;  (** worst-replica deal latency *)
  failure : float;  (** {!Pipeline_model.Cost.failure} *)
}

val evaluate :
  Instance.t -> Reliability.t -> Deal_mapping.t -> solution
(** Score a deal mapping on all three criteria. *)

val feasible : solution -> period:float -> failure:float -> bool
(** Both bounds hold, each with the usual 1e-9 relative tolerance (the
    failure bound additionally absorbs 1e-12 absolute, so a bound of 0
    accepts an exactly-zero failure probability). *)

val minimise_latency :
  Instance.t -> Reliability.t -> period:float -> failure:float ->
  solution option
(** Raises [Invalid_argument] when the reliability vector does not cover
    the platform, the period bound is not finite and positive, or the
    failure bound is outside [\[0,1\]]. *)
