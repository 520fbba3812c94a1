(** Splitting-and-dealing heuristic: the paper's H1/H5 pair extended with
    replication moves (the §7 "deal skeleton" perspective, implemented).

    The driver keeps the paper's skeleton — start from the fastest single
    processor, repeatedly improve the bottleneck interval with the next
    fastest unused processor — but now has two moves:

    {ul
    {- {e split} the bottleneck interval in two (exactly H1's move;
       restricted to unreplicated intervals);}
    {- {e replicate} the bottleneck interval: enrol the processor as an
       extra round-robin replica, dividing the interval's period
       contribution by its replica count without touching the partition —
       the only escape when the bottleneck is a single
       computation-heavy stage, where the paper's heuristics are stuck.}}

    At each step the move with the lowest resulting period is applied
    (ties: lowest latency); both moves consume one new processor, so the
    loop terminates after at most [p - 1] steps. *)

open Pipeline_model

type solution = {
  mapping : Deal_mapping.t;
  period : float;   (** round-robin deal period *)
  latency : float;
}

val initial : Instance.t -> solution
(** Every stage on the fastest processor, where both drivers start. *)

val minimise_latency_under_period : Instance.t -> period:float -> solution option
(** Split/replicate while the period exceeds the threshold. When no move
    improves the period any more (a replicated bottleneck cannot be
    split), the answer is H1's mapping ({!Pipeline_core.Sp_mono_p}) as a
    deal mapping, so this never fails where H1 succeeds. *)

val minimise_period_under_latency : Instance.t -> latency:float -> solution option
(** Split/replicate while the period improves within the latency budget.
    [None] when {!initial} violates the budget. *)

val reach : Instance.t -> float
(** The smaller of the final period of the walk run without a bound
    and H1's {!Pipeline_core.Sp_mono_p.reach}, the fallback's:
    [minimise_latency_under_period ~period] succeeds iff
    [Tol.meets (reach inst) period]. *)
