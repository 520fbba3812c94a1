(** Prefix sums over a chain of non-negative elements.

    The chains-to-chains algorithms probe interval sums constantly; this
    module makes every [Σ a_d..a_e] an O(1) lookup and hosts the shared
    binary search "longest prefix whose sum fits under a budget" used by
    the greedy probes. Elements are 1-based ([a_1 … a_n]) to match the
    paper; the input array is the usual 0-based OCaml array. *)

type t

val make : float array -> t
(** Raises [Invalid_argument] if the array is empty or contains a negative
    or non-finite element. *)

val n : t -> int
(** Number of elements. *)

val element : t -> int -> float
(** [element t i] is [a_i], [1 ≤ i ≤ n]. *)

val sum : t -> int -> int -> float
(** [sum t d e] is [Σ_{i=d..e} a_i] for [1 ≤ d ≤ e ≤ n]; [0.] when
    [d > e] (empty interval inside the valid index range). *)

val total : t -> float

val longest_fitting : t -> from:int -> budget:float -> int
(** [longest_fitting t ~from ~budget] is the largest [e ≥ from - 1] such
    that [sum t from e ≤ budget] (so [from - 1] means even [a_from] alone
    overflows). O(log n) by binary search over the prefix table. Requires
    [1 ≤ from ≤ n] and [budget ≥ 0]. *)

val max_from : t -> int -> float
(** [max_from t k] is [max (a_k, …, a_n)] (and [≥ 0.]), served O(1) from
    a suffix table built once in {!make}, used by {!Probe} so that
    suffix probes ([from > 1]) stay O(log n) instead of rescanning the
    tail. Requires [1 ≤ k ≤ n]. *)
