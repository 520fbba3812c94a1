(** Brute-force enumeration of deal mappings (validation only).

    Every partition of the stages into consecutive intervals and every
    assignment of disjoint non-empty processor sets to the intervals,
    enumerated by {!Pipeline_optimal.Exhaustive} and scored with the
    round-robin cost model — the ground truth for {!Deal_heuristic} on
    tiny instances. The search space is huge (partitions × ordered set
    partitions of the processors), so a guard rejects instances beyond
    [10^6] enumerated mappings. The enumeration feeds the
    [deal.exhaustive.*] counters; results are bit-identical at any pool
    width and any frontier size (DESIGN.md §14). *)

open Pipeline_model

val fold :
  Instance.t ->
  init:'a ->
  step:('a -> Deal_mapping.t -> 'a) ->
  merge:('a -> 'a -> 'a) ->
  'a
(** {!Pipeline_optimal.Exhaustive.fold} over every deal mapping. The
    tri-criteria oracle ([Ft_exhaustive]) and {!min_period} are both
    built on this. Raises [Invalid_argument] beyond the size guard. *)

val min_period : Instance.t -> Deal_heuristic.solution
(** The deal mapping with the smallest round-robin period (ties broken by
    latency). Raises [Invalid_argument] beyond the size guard or on
    non-communication-homogeneous platforms. *)
