(** Failure thresholds (paper Table 1).

    The paper defines the failure threshold of a heuristic as the largest
    fixed period (resp. latency) for which it cannot find a solution —
    i.e. the boundary of its feasible region. For period-fixed rows on
    comm-homogeneous platforms the boundary is an achievable period, so
    it is located {e exactly} by {!Pipeline_model.Threshold.search} over
    the finite candidate set; latency-fixed rows (and stacks off the
    plain candidate grid) use the adaptive bisection of
    {!Pipeline_model.Threshold.bisect} (DESIGN.md §9). Every row but ft
    answers each probe of either search by comparing the threshold with
    the [reach] of its {!Pipeline_registry.info}, computed once; ft
    solves at each probe. Past [2²²] interval-config triples on uniform
    deltas, where the candidate array is too large to build, the same
    search runs on the lattice
    ({!Pipeline_model.Threshold.search_periods}, DESIGN.md §11). The
    reported value averages the per-instance boundaries over the batch,
    matching the table's per-(experiment, n) cells. *)

open Pipeline_model
module Registry = Pipeline_registry

val search :
  counter:Obs.Counter.t ->
  ?search_counter:Obs.Counter.t ->
  Registry.info ->
  Instance.t ->
  float
(** The one threshold search: the exact smallest succeeding candidate
    for period-fixed rows, the adaptive bisection's bracket (at most 40
    probes) otherwise. [counter] counts its probes; [search_counter],
    when given, replaces the [model.threshold.*] counters. *)

val instance_threshold : Registry.info -> Instance.t -> float
(** {!search} counted on [experiments.threshold_probes]. For
    latency-fixed heuristics this converges to the optimal latency — H5
    and H6 necessarily tie, which is exactly the paper's "surprising"
    observation. *)

val average_threshold : Registry.info -> Instance.t list -> float
(** Batch average of {!instance_threshold}. *)

val max_threshold : Registry.info -> Instance.t list -> float
(** Worst per-instance boundary over the batch — the alternative reading
    of the paper's "largest value for which the heuristic was not able to
    find a solution" (cf. EXPERIMENTS.md). *)

type aggregate = Mean | Max

type table = {
  experiment : Config.experiment;
  p : int;
  ns : int list;                         (** columns *)
  rows : (string * float list) list;     (** (table name, one value per n) *)
}

val table :
  ?aggregate:aggregate ->
  ?pairs:int -> ?seed:int -> Config.experiment -> p:int -> ns:int list -> table
(** The full Table 1 block for one experiment (defaults: [Mean] aggregate,
    50 pairs, seed 2007). *)

val render : table -> string
(** Aligned text rendering. *)

val render_markdown : table -> string
