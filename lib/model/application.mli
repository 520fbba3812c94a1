(** Pipeline applications (paper §2, Figure 1).

    An application is a linear chain of [n] stages [S_1 … S_n]. Stage [S_k]
    reads a message of size [δ_{k-1}] from its predecessor (or from the
    outside world for [k = 1]), performs [w_k] units of computation, and
    writes a message of size [δ_k] to its successor (or to the outside
    world for [k = n]).

    Stage indices are 1-based, matching the paper; communication sizes are
    0-based: [delta t k] is defined for [0 ≤ k ≤ n].

    All quantities are non-negative floats. Interval work sums are served
    from a prefix-sum table, so {!work_sum} is O(1). Values of this type
    are immutable. *)

type t

val make : ?labels:string array -> deltas:float array -> float array -> t
(** [make ~deltas works] builds an application with
    [n = Array.length works] stages; [deltas] must have length [n + 1]
    ([δ_0 … δ_n]). [labels], when given, names each stage (length [n]).
    Raises [Invalid_argument] if lengths are inconsistent, [n = 0], or any
    value is negative or not finite. The arrays are copied. *)

val uniform : n:int -> work:float -> delta:float -> t
(** [uniform ~n ~work ~delta] is the application with [n] identical stages
    of weight [work] and all communications of size [delta]. *)

val of_stages : (float * float) list -> delta0:float -> t
(** [of_stages specs ~delta0] builds an application from
    [specs = [(w_1, δ_1); …; (w_n, δ_n)]] plus the initial input size
    [δ_0]. *)

val n : t -> int
(** Number of stages. *)

val work : t -> int -> float
(** [work t k] is [w_k], for [1 ≤ k ≤ n]. Raises [Invalid_argument]
    otherwise. *)

val delta : t -> int -> float
(** [delta t k] is [δ_k], for [0 ≤ k ≤ n]. Raises [Invalid_argument]
    otherwise. *)

val label : t -> int -> string
(** [label t k] is the name of stage [k] (["S<k>"] when unnamed). *)

val work_sum : t -> int -> int -> float
(** [work_sum t d e] is [Σ_{i=d..e} w_i] (inclusive), in O(1).
    Raises [Invalid_argument] unless [1 ≤ d ≤ e ≤ n]. *)

val total_work : t -> float
(** [work_sum t 1 n]. *)

val prefix_sums : t -> float array
(** The prefix-sum table behind {!work_sum}: index [k] holds
    [Σ_{i=1..k} w_i], index [0] holds [0.], so
    [work_sum t d e = (prefix_sums t).(e) -. (prefix_sums t).(d - 1)].
    The table itself, not a copy, so that {!Cost}'s lattice sweeps can
    read it without allocating: callers must not mutate it. *)

val works : t -> float array
val deltas : t -> float array
(** Fresh copies of the underlying arrays. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

val to_compact_string : t -> string
(** One-line summary, e.g. ["pipeline[n=4; w=1,2,3,4; d=10,10,10,10,10]"]. *)
