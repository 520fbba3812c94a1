(** Target platforms (paper §2).

    A platform is a set of [p] processors [P_1 … P_p] (identified here by
    0-based indices [0 … p-1]) fully interconnected by bidirectional links.
    Processor [u] has speed [speed t u]: executing [X] operations takes
    [X / speed] time units; sending a message of size [X] over a link of
    bandwidth [b] takes [X / b] (linear cost model). Contention follows
    the one-port model, which the analytic cost functions of
    {!module:Cost} assume and the simulator in [Pipeline_sim] enforces
    operationally.

    Three platform classes appear in the paper:
    - {e fully homogeneous}: identical speeds, identical links
      (Subhlok-Vondran's setting);
    - {e communication homogeneous}: different speeds, identical links —
      the class studied by the paper; and
    - {e fully heterogeneous}: both speeds and link bandwidths differ
      (future work in the paper; supported here by the cost functions so
      the heuristics can be stressed beyond the paper's setting).

    The outside world (source of [δ_0], sink of [δ_n]) is reachable from
    every processor; the bandwidth used for these boundary transfers is
    [io_bandwidth]. *)

type t

val comm_homogeneous : ?io_bandwidth:float -> bandwidth:float -> float array -> t
(** [comm_homogeneous ~bandwidth speeds] builds a communication-homogeneous
    platform: every link has capacity [bandwidth]. [io_bandwidth] defaults
    to [bandwidth]. Raises [Invalid_argument] if [speeds] is empty or any
    speed/bandwidth is not strictly positive and finite. *)

val fully_homogeneous : ?io_bandwidth:float -> speed:float -> bandwidth:float -> int -> t
(** [fully_homogeneous ~speed ~bandwidth p] is [p] identical processors
    with identical links. *)

val fully_heterogeneous :
  ?io_bandwidths:float array -> bandwidths:float array array -> float array -> t
(** [fully_heterogeneous ~bandwidths speeds] builds a fully heterogeneous
    platform; [bandwidths] is a symmetric [p×p] matrix ([bandwidths.(u).(v)]
    is the capacity of the link between [u] and [v]; the diagonal is
    ignored — intra-processor transfers are free). [io_bandwidths.(u)]
    (default: the max entry of row [u]) is the bandwidth between [u] and
    the outside world. Raises [Invalid_argument] on shape or sign
    errors, or if the matrix is not symmetric. *)

val scale_rates : factor:float -> t -> t
(** [scale_rates ~factor t] multiplies every rate — speeds, link
    bandwidths and I/O bandwidths — by [factor], preserving the platform
    kind. Every time a cost function computes is [X / rate], so all
    periods and latencies scale by [1/factor]; for power-of-two factors
    the scaling is bit-exact (IEEE-754 division by a scaled power of two
    only moves the exponent). Raises [Invalid_argument] unless [factor]
    is finite and strictly positive. *)

val p : t -> int
(** Number of processors. *)

val speed : t -> int -> float
(** [speed t u], [0 ≤ u < p]. *)

val speeds : t -> float array
(** Fresh copy of the speed vector. *)

val bandwidth : t -> int -> int -> float
(** [bandwidth t u v] is the link capacity between distinct processors [u]
    and [v]; [infinity] when [u = v] (intra-processor data does not travel). *)

val io_bandwidth : t -> int -> float
(** Bandwidth between processor [u] and the outside world. *)

val is_comm_homogeneous : t -> bool
(** True when all (inter-processor and I/O) bandwidths are equal. *)

val with_speeds : t -> float array -> t
(** [with_speeds t speeds] is the communication-homogeneous platform of
    [speeds] on [t]'s links: bandwidth [bandwidth t 0 1] ([io_bandwidth
    t 0] when [p t = 1]) and I/O bandwidth [io_bandwidth t 0]. The
    degraded and survivor platforms of the online controllers. *)

val restrict : t -> int array -> t
(** [restrict t procs] is [with_speeds t] of the speeds of [procs]:
    processor [i] of the result is processor [procs.(i)] of [t]. *)

val fastest : t -> int
(** Index of a fastest processor (smallest index on ties). *)

val by_decreasing_speed : t -> int array
(** Processor indices sorted by non-increasing speed; ties broken by
    index. All heuristics of the paper consume processors in this order. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
