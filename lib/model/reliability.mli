(** Per-processor reliability — the third criterion.

    The paper schedules for period and latency on processors that never
    fail; the fault-tolerance extension attaches to each processor [u] a
    probability [f_u ∈ \[0,1\]] of failing during the window of interest
    (independent across processors, the standard exponential-lifetime
    abstraction with a common mission time folded into [f_u]).

    An interval mapping enrols each used processor exactly once and
    every data set crosses every enrolled processor, so the mapping
    fails as soon as {e any} enrolled processor fails:

    {ul
    {- [mapping_success] is [Π_{u used} (1 - f_u)];}
    {- [mapping_failure] is [1 - mapping_success].}}

    Replication changes the formula — an interval survives while {e any}
    replica survives — see {!Cost.failure}. *)

type t

val make : float array -> t
(** [make f] with [f.(u)] the failure probability of processor [u]
    (0-based). Raises [Invalid_argument] unless every entry is in
    [\[0,1\]] (NaN rejected). The array is copied. *)

val uniform : p:int -> float -> t
(** [p] processors, all with the same failure probability. *)

val p : t -> int
(** Number of processors covered. *)

val failure : t -> int -> float
(** [failure t u] — the failure probability of processor [u]. Raises
    [Invalid_argument] if [u] is out of range. *)

val success : t -> int -> float
(** [1 - failure t u]. *)

val group_failure : t -> int list -> float
(** Probability that {e every} processor of the list fails
    ([Π f_u] — a replica group is lost only when all replicas are).
    The empty list yields [1.] (an empty group provides no service). *)

val group_success : t -> int list -> float
(** Probability that {e no} processor of the list fails ([Π (1-f_u)]).
    The empty list yields [1.]. *)

val mapping_failure : t -> Mapping.t -> float
(** [1 - Π_{u used}(1 - f_u)] — raises [Invalid_argument] when the
    mapping references processors outside [0..p-1]. *)

val mapping_success : t -> Mapping.t -> float
