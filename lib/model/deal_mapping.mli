(** Interval mappings with replicated intervals — the {e deal} skeleton
    the paper's conclusion sketches (§7: "a farm or deal skeleton would
    allow to split the workload of the initial stage among several
    processors").

    A deal mapping partitions the stages into consecutive intervals, like
    the paper's mappings, but assigns each interval a non-empty {e set}
    of processors; consecutive data sets are dealt round-robin to the
    interval's replicas. Processors are still enrolled at most once
    overall (the per-stage state of §2 lives per replica: each replica
    sees every [r]-th data set, so the sequential-order-within-a-replica
    requirement is preserved). *)


type t

val make : n:int -> (Interval.t * int list) list -> t
(** [make ~n assignment] — intervals must partition [\[1..n\]] in order;
    every replica list must be non-empty and all processors distinct
    overall. Raises [Invalid_argument] otherwise. *)

val of_mapping : Mapping.t -> t
(** Every interval replicated once: plain mappings embed. *)

val to_mapping : t -> Mapping.t option
(** The inverse embedding when no interval is actually replicated. *)

val n : t -> int
val m : t -> int
(** Number of intervals. *)

val interval : t -> int -> Interval.t
val replicas : t -> int -> int list
(** Processors of interval [j] (0-based), in deal order. *)

val replication : t -> int -> int
(** [List.length (replicas t j)]. *)

val processors : t -> int list
(** All enrolled processors. *)

val uses : t -> int -> bool

val replicate : t -> j:int -> proc:int -> t
(** Add one replica to interval [j]. Raises [Invalid_argument] if [proc]
    is already enrolled. *)

val replace : t -> j:int -> (Interval.t * int list) list -> t
(** Substitute interval [j] by consecutive sub-intervals (used by the
    splitting heuristic); same tiling rules as {!Mapping.replace}. *)

val valid_on : t -> Platform.t -> bool
val to_string : t -> string
(** E.g. ["{[1..2]->{P0}, [3]->{P1,P4}}"]. *)
