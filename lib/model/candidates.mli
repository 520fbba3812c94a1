(** The finite candidate sets of the exact threshold searches.

    Equation (1) makes a mapping's period the {e max} of its interval
    cycle-times, so every achievable period is one of the finitely many
    values [cycle(d, e, config)] over the engine's
    {!Cost.candidate_configs} — the speed representatives on a
    comm-homogeneous platform ([n(n+1)/2 × |distinct speeds|] values,
    DESIGN.md §9), and the (speed, boundary-in, boundary-out)
    configuration family on a fully heterogeneous one
    ([O(n² · p³)] naively, DESIGN.md §13) — and a threshold search over
    periods only needs to probe those. The arrays returned here are
    sorted, deduplicated, produced by the engine's own
    {!Cost.config_cycle} expressions (no new float associations), and
    cached lazily on the engine, so enumeration is paid once per
    [(application, platform)] pair.

    Every function works on every platform kind. On fully heterogeneous
    platforms the set is a {e superset} of the achievable periods (not
    every configuration is realisable by a mapping), but threshold
    searches over it remain exact: a monotone feasibility probe flips at
    an achievable — hence member — value, so the smallest feasible
    candidate is the true threshold.

    Past [2²²] interval-config triples on uniform deltas ({!too_large})
    the period array is never built: {!period_ceiling} and
    {!Threshold.search_periods} read {!Cost.lattice_ceiling} there
    instead (DESIGN.md §11). *)

val periods : Cost.t -> float array
(** Sorted, deduplicated cycle-times over every interval and candidate
    configuration: a complete (on fully heterogeneous platforms,
    superset) enumeration of the achievable periods for plain interval
    mappings. Built on first use, cached on the engine. *)

val deal_periods : Cost.t -> float array
(** The deal-replication variant: every plain candidate divided by every
    replication factor [1..p] — a superset of the periods achievable by
    {!Cost.deal_period} (round-robin deals). Built on first use, cached
    on the engine. *)

val of_values : float list -> float array
(** Sort and deduplicate an explicit candidate list (exact float
    equality). Raises [Invalid_argument] on NaN. *)

val ceiling : float array -> float -> float option
(** [ceiling candidates v] — the smallest candidate [>= v], or [None]
    when [v] exceeds them all. Used to snap relaxation lower bounds up
    onto the achievable grid. *)

val oversized : Cost.t -> int option
(** [Some count] when the interval-config triples {!periods} enumerates
    ([n(n+1)/2 · |configs|]) pass [2²²], past which the array would not
    fit in memory; [None] below. *)

val too_large : Cost.t -> bool
(** {!oversized} when every message size [δ_0 … δ_n] is equal:
    {!Cost.lattice_ceiling} answers in the array's place. On other
    message sizes no lattice applies and the array is built at any
    size. *)

val period_ceiling : Cost.t -> float -> float option
(** [period_ceiling cost v] — {!ceiling} of {!periods}, bit for bit;
    {!Cost.lattice_ceiling} when {!too_large}. [period_ceiling cost]
    makes that choice once, for every later query. *)
