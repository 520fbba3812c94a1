(** Intervals of consecutive stages.

    An interval [\[d, e\]] (1-based, inclusive, [d ≤ e]) is the unit of
    allocation: interval mappings assign one interval per participating
    processor. *)

type t = private { first : int; last : int }

val make : first:int -> last:int -> t
(** Raises [Invalid_argument] unless [1 ≤ first ≤ last]. *)

val singleton : int -> t
(** [singleton k] is [\[k, k\]]. *)

val first : t -> int
val last : t -> int

val length : t -> int
(** Number of stages, [last - first + 1]. *)

val mem : t -> int -> bool
(** [mem t k] is true when [first ≤ k ≤ last]. *)

val split_points : t -> int list
(** The positions [c] with [first ≤ c < last]: cutting after stage [c]
    yields two non-empty halves [\[first, c\]] and [\[c+1, last\]]. Empty
    for singletons. *)

val split_at : t -> int -> t * t
(** [split_at t c] cuts after stage [c]. Raises [Invalid_argument] unless
    [c] is a valid split point. *)

val split3_at : t -> int -> int -> t * t * t
(** [split3_at t c1 c2] with [first ≤ c1 < c2 < last] cuts into the three
    non-empty parts [\[first,c1\]], [\[c1+1,c2\]], [\[c2+1,last\]]. *)

val partition_of : int -> t list -> bool
(** [partition_of n ivs] checks that [ivs] is, in order, a partition of
    [\[1..n\]] into consecutive intervals ([d_1 = 1], [d_{j+1} = e_j + 1],
    [e_m = n]). *)

val to_string : t -> string
