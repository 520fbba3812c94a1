(** Brute-force enumeration of every interval mapping, plain or dealt.

    Enumerates all partitions of [\[1..n\]] into [m] intervals and all
    ways to give each interval what a {!type:rule} says it receives: one
    free processor (a plain interval mapping) or a non-empty set of free
    processors (a deal mapping, arXiv 0711.1231). Plain mappings are
    scored with the full {!Pipeline_model.Cost} model — so, unlike
    {!Bicriteria}, the plain queries also work on fully heterogeneous
    platforms, where they are the exact solver behind the CLI's
    [solve --exact] and [pareto] and the serve daemon's [/solve] and
    [/pareto]; elsewhere they validate the heuristics and the DP. Plain
    enumeration cost grows as [Σ_m C(n-1, m-1) · p!/(p-m)!]; a guard
    rejects instances whose estimated enumeration exceeds [10^7] plain
    mappings or [10^6] deal mappings.

    Plain mappings are scored along the enumeration tree with
    {!Pipeline_model.Cost}'s interval terms, so a leaf's period and
    latency cost O(1) and equal {!Pipeline_model.Cost.period} and
    {!Pipeline_model.Cost.latency} bit for bit. A mapping is built only
    when a query keeps its leaf, and {!pareto} holds a running front per
    task: its memory is O(front), not O(mappings).

    The order is the interval count [m] ascending, then the cut
    positions in lexicographic order, then each interval's processor (or
    processor set, as a bit mask) ascending. The solvers expand the
    enumeration tree breadth-first into a deterministic frontier of
    independent subtree tasks ({!Pipeline_util.Pool.fan_out}) and run
    the frontier on the domain pool; task-local results merge in
    frontier order, and the frontier preserves the sequential
    enumeration order, so every answer — including which of several
    equal-cost optima is returned — is bit-identical to the sequential
    enumeration at any pool width and any frontier size (DESIGN.md
    §14). *)

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

type 'mapping rule
(** What each interval receives, with the counters its enumeration
    feeds. *)

val deal :
  mappings:Obs.Counter.t -> branches:Obs.Counter.t -> Deal_mapping.t rule
(** Each interval receives a non-empty set of free processors; the
    enumerated mappings and frontier tasks are added to the given
    counters. Plain mappings count in [optimal.exhaustive.*]. *)

type 'mapping leaf
(** One enumerated mapping, seen from inside its task: the enumeration
    overwrites it in place, so it is valid only during the [step] call
    it is passed to. *)

val mapping : 'm leaf -> 'm
(** Builds the leaf's mapping. *)

val fold :
  'm rule ->
  Instance.t ->
  init:'a ->
  step:('a -> 'm leaf -> 'a) ->
  merge:('a -> 'a -> 'a) ->
  'a
(** Fold [step] over every mapping, task-parallel over the enumeration
    frontier. Contract: merging contiguous segment folds in enumeration
    order with [merge] must equal the one-pass sequential fold — true
    for any first-seen-wins minimisation — and then the result is
    bit-identical at any pool width. Raises [Invalid_argument] beyond
    the size guard. *)

val iter_mappings : Instance.t -> (Mapping.t -> unit) -> unit
(** Enumerate every plain interval mapping, sequentially and in order
    (raises [Invalid_argument] when the estimate exceeds the guard). *)

val min_period : Instance.t -> Solution.t
val min_latency : Instance.t -> Solution.t

val min_latency_under_period : Instance.t -> period:float -> Solution.t option
val min_period_under_latency : Instance.t -> latency:float -> Solution.t option

val pareto : Instance.t -> Solution.t list
(** Non-dominated (period, latency) mappings, sorted by increasing
    period; values within the acceptance slack tie
    ({!Pipeline_core.Solution.front}). Among mappings with exactly the
    same (period, latency) the witness is the {e last} enumerated, where
    {!min_period} and the other queries keep the first: [pareto] is
    {!Pipeline_core.Solution.front} of the reversed enumeration. *)

val offer : Solution.t list -> Solution.t -> Solution.t list
(** The running front {!pareto} keeps. [offer kept s] is [kept] when a
    point of [kept] weakly dominates [s] without tying it exactly;
    otherwise [s] joins and every point it weakly dominates leaves, an
    exact tie included. So [Solution.front (List.fold_left offer []
    points) = Solution.front (List.rev points)] (DESIGN.md §14.1). *)
