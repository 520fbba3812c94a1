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

val search_set :
  ?probe_counter:Obs.Counter.t ->
  set:Candidates.Set.t ->
  probe:(float -> 'a option) ->
  unit ->
  'a found option
(** {!search} over a possibly-lazy candidate set. Materialised sets
    delegate to {!search} verbatim (same probe sequence, same
    [model.threshold.candidate_probes] counters — bit-identical to the
    historical path at paper sizes). Lazy lattice sets run an exact
    binary search over IEEE-754 bit patterns — non-negative finite
    doubles order identically to their [Int64.bits_of_float] images —
    snapping each midpoint onto the set with {!Candidates.Set.floor},
    and returns the exact smallest feasible candidate with no ε. Most
    rounds of that bisection hold no candidate; a run of such empty
    rounds is skipped with one {!Candidates.Set.ceiling}, which leaves
    the probe sequence exactly as a round-by-round loop would issue it.
    The cost is one O(n·|configs|) floor sweep and one probe per
    probing round, plus one floor and one ceiling sweep per run of
    empty rounds. Lazy probes are counted in
    [model.threshold.lattice_probes]. *)

val boundary_set :
  ?probe_counter:Obs.Counter.t ->
  set:Candidates.Set.t ->
  succeeds:(float -> bool) ->
  unit ->
  float option
(** {!search_set} for plain feasibility tests: the exact threshold at
    which [succeeds] flips from false to true, assuming it only flips at
    a candidate (true whenever the probed solver compares its threshold
    against achievable objective values — DESIGN.md §9). *)

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
