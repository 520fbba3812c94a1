(** Splitting heuristics for {e fully heterogeneous} platforms — the
    extension the paper lists as future work (§7: "It would be
    interesting to deal with fully heterogeneous platforms").

    On communication-homogeneous platforms an interval's cycle-time does
    not depend on its neighbours, which is what makes the paper's
    incremental splitting cheap. With per-link bandwidths that locality
    is gone: moving a piece to another processor changes the boundary
    transfer costs of the adjacent intervals too. These heuristics
    therefore re-evaluate candidates with the full
    {!Pipeline_model.Cost} model (O(m) per candidate) and widen
    the candidate pool: the piece handed away may go to {e any} unused
    processor, not only the next fastest — on a heterogeneous network,
    a slightly slower machine with fat links to its neighbours often
    wins. Free processors are enumerated in {e comm-aware} order
    (DESIGN.md §13): ranked by the time the bottleneck interval would
    take on them — boundary input over the link from the upstream
    processor, compute at their speed, boundary output over the link
    downstream — so among candidates with exactly equal (period,
    latency) the one on the best-connected target wins. On a
    comm-homogeneous platform the rank reduces to effective speed.

    Both drivers start from the best single-processor mapping
    ({!Pipeline_optimal.Latency.solve}, Lemma 1) and split
    the current bottleneck interval greedily, like the paper's H1/H5
    pair. They accept any platform (on a communication-homogeneous one
    they behave like a generalised H1/H5 with free processor choice).

    Threshold searches over these heuristics are {e exact} on every
    platform kind: {!Pipeline_model.Candidates} builds the fully-het
    candidate family [(speed, boundary-in, boundary-out)] and
    {!Pipeline_model.Threshold.search} binary-searches it, replacing
    the ε-bisection these rows used before (DESIGN.md §13). *)

open Pipeline_model
open Pipeline_core

type select =
  | Min_period  (** smallest resulting period, ties by latency (mono) *)
  | Min_ratio   (** smallest latency increase per unit of period gained
                    (the paper's bi-criteria rule, on global values) *)

val minimise_latency_under_period :
  ?select:select -> Instance.t -> period:float -> Solution.t option
(** Split the bottleneck while the period exceeds the threshold
    (default selection [Min_period]). [None] when stuck above the
    threshold. *)

val reach : ?select:select -> Instance.t -> float
(** Final period of the walk run without a bound:
    [minimise_latency_under_period ~select ~period] succeeds iff
    [Tol.meets (reach ~select inst) period]. *)

val minimise_period_under_latency :
  ?select:select -> Instance.t -> latency:float -> Solution.t option
(** Split while an accepted candidate strictly lowers the period and
    keeps the latency within budget. [None] when even the best
    single-processor mapping violates the budget.

    Like {!Pipeline_core.Sp_mono_l}, the result is not monotone in the
    budget: a larger budget can admit a higher-latency split early on
    that the greedy never revisits, and end on a higher period.

    The four packaged heuristics (ids [het-sp-mono-p], [het-sp-bi-p],
    [het-sp-mono-l], [het-sp-bi-l]) live in the unified
    [Pipeline_registry] alongside every other stack's rows. *)
