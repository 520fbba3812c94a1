(** Exact dynamic programming for homogeneous chains-to-chains.

    [f(k, j)] = best bottleneck partitioning the first [k] elements into
    at most [j] intervals; [f(k, j) = min_{i<k} max(f(i, j-1),
    sum(i+1..k))]. O(n²p) time, O(np) space — the textbook algorithm of
    Bokhari (1988) / Hansen & Lih (1992), used here as the reference
    optimum against which {!Exact} (parametric search) and {!Nicol} are
    validated. *)

val solve : float array -> p:int -> float * Partition.t
(** [solve a ~p] minimises the largest interval sum over partitions of
    [a] into at most [p] non-empty intervals. Raises [Invalid_argument]
    when [a] is empty or [p < 1]. *)
