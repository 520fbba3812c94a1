(** Generic dynamic programming over (prefix of stages, set of used
    processors).

    On communication-homogeneous platforms the cost of an interval on a
    processor does not depend on where its neighbours run, so optimal
    interval mappings decompose along prefixes: the DP state is "first
    [k] stages mapped, processors of subset [S] used (each running one
    non-empty interval)". Exponential in [p] — this is the ground truth
    engine for validation-sized instances, matching the NP-hardness of
    the problem (Theorem 2).

    Two objectives are provided over a user-supplied interval cost:
    bottleneck (period) and sum-under-a-bottleneck-cap (latency under a
    period threshold). *)

type assignment = (Pipeline_model.Interval.t * int) list
(** Intervals in pipeline order with their processor. *)

val max_procs : int
(** Largest supported [p] (16): the tables hold [2^p · (n+1)] cells. *)

val check : n:int -> p:int -> unit
(** The guard both solvers run first, for callers that must fail before
    they prepare the costs: raises [Invalid_argument] when [n < 1] or
    [p < 1] or [p > max_procs]. *)

val minimise_bottleneck :
  n:int -> p:int -> cost:(d:int -> e:int -> u:int -> float) -> float * assignment
(** [minimise_bottleneck ~n ~p ~cost] minimises
    [max_j cost(d_j, e_j, u_j)] over all partitions of [\[1..n\]] into at
    most [p] intervals and injective processor assignments.
    Raises [Invalid_argument] when [n < 1] or [p < 1] or [p > max_procs]. *)

val minimise_sum_under_cap :
  n:int ->
  p:int ->
  cap_cost:(d:int -> e:int -> u:int -> float) ->
  sum_cost:(d:int -> e:int -> u:int -> float) ->
  cap:float ->
  (float * assignment) option
(** Minimise [Σ_j sum_cost(I_j, u_j)] subject to
    [cap_cost(I_j, u_j) ≤ cap] for every interval; [None] when no
    assignment satisfies the cap. *)
