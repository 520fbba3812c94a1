(** The shared threshold-search engine.

    Bi-criteria solving is threshold search: minimise one objective
    subject to a bound on the other, with a monotone feasibility probe
    (anything feasible at a threshold stays feasible at a larger one).
    This module provides the two search drivers every stack uses
    (DESIGN.md §9):

    {ul
    {- {!search} — {e exact} binary search over a finite, sorted
       candidate array (see {!Candidates}): [⌈log₂ count⌉ + 1] probes,
       and the returned threshold is an achievable value, not an
       ε-approximation;}
    {- {!bisect} — adaptive ε-bisection for directions without a small
       candidate set (latency is a {e sum} of interval contributions),
       stopping as soon as the bracket converges instead of burning a
       fixed iteration count.}}

    {!search_periods} searches an engine's period candidates with
    {!search}, or with {!search_lattice} where the array is too large to
    build (DESIGN.md §11).

    Probe counts and memo hits are published through the
    [model.threshold.*] counters (see [doc/observability.mld]). Callers
    that must not move those historical counters — new bench sections
    whose metrics would otherwise perturb the golden dump — pass their
    own [?probe_counter]; it then receives every probe (and the default
    counters, including the memo-hit bookkeeping, stay untouched). *)

type 'a found = {
  threshold : float;  (** smallest feasible candidate — the exact bound *)
  payload : 'a;  (** what the probe returned at that candidate *)
  probes : int;  (** probes spent, for the caller's own counters *)
}

val search :
  ?probe_counter:Obs.Counter.t ->
  candidates:float array ->
  probe:(float -> 'a option) ->
  unit ->
  'a found option
(** [search ~candidates ~probe] — smallest candidate the monotone [probe]
    accepts, with the probe's payload. [candidates] must be sorted
    ascending (as {!Candidates} builds them). [None] when the array is
    empty or even the largest candidate fails. The winning candidate is
    probed exactly once: its payload is memoised during the search
    rather than re-probed at the end (counted in
    [model.threshold.memo_hits]). *)

val search_lattice :
  ?probe_counter:Obs.Counter.t ->
  Cost.t ->
  probe:(float -> 'a option) ->
  unit ->
  'a found option
(** {!search} over {!Candidates.periods} of a uniform-delta engine
    without building the array: for a monotone [probe], the same
    threshold and payload. A bisection of the IEEE-754 order that
    probes only {!Cost.lattice_ceiling} values: at most 64 rounds, each
    one O(n · |configs|) ceiling and at most one probe. Counted in
    [model.threshold.candidate_probes]. Its answer is meaningless on
    non-uniform message sizes. *)

val search_periods :
  ?probe_counter:Obs.Counter.t ->
  Cost.t ->
  probe:(float -> 'a option) ->
  unit ->
  'a found option
(** The period search of an engine: {!search_lattice} when
    {!Candidates.too_large}, {!search} over {!Candidates.periods}
    otherwise. *)

type bisection = {
  lo : float;  (** largest known-infeasible value *)
  hi : float;  (** smallest known-feasible value *)
  probes : int;
}

val bisect :
  ?max_probes:int ->
  ?rel:float ->
  ?probe_counter:Obs.Counter.t ->
  lo:float ->
  hi:float ->
  feasible:(float -> bool) ->
  unit ->
  bisection
(** [bisect ~lo ~hi ~feasible ()] halves the bracket until
    {!Pipeline_util.Tol.converged} (at [rel], default
    {!Pipeline_util.Tol.bisect_rel}) or [max_probes] (default 64)
    probes. The caller's invariant: [hi] is feasible, [lo] is not; the
    driver preserves it. Midpoint results are memoised, so a degenerate
    bracket that revisits a midpoint does not re-probe. Probing the same
    midpoint sequence as a legacy fixed-count loop with the same [rel]
    and [max_probes] reproduces its results bit-for-bit. *)
