(** Partitions of a chain [\[1..n\]] into consecutive non-empty intervals.

    Shared result type of every chains-to-chains algorithm. Reuses
    {!Pipeline_model.Interval} so partitions convert to pipeline mappings
    for free. *)

type t = Pipeline_model.Interval.t array
(** Intervals in order; a valid partition tiles [\[1..n\]]. *)

val of_cuts : n:int -> int list -> t
(** [of_cuts ~n cuts] builds the partition cut after each position in
    [cuts] (strictly increasing, each in [\[1, n-1\]]). [of_cuts ~n []]
    is the single interval [\[1..n\]]. *)

val size : t -> int
(** Number of intervals. *)

val loads : Prefix.t -> t -> float array
(** Interval sums. *)

val weighted_bottleneck : Prefix.t -> speeds:float array -> t -> float
(** [max_j (sum I_j) / speeds.(j)] — the heterogeneous objective for a
    partition whose interval [j] is served at speed [speeds.(j)]
    ([speeds] must have one entry per interval). *)
