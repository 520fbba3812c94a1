(** The comm-homogeneous stack of the splitting walk (paper §4, H1–H6).

    The working state holds the processors sorted by non-increasing
    speed, the current interval mapping (all stages on the fastest
    processor at the start) and the cycle-time of each enrolled
    processor. A step splits the interval with the largest cycle-time
    ("largest period" in the paper), handing pieces to the next unused
    processor(s) in the speed order. The heuristics differ only in how
    they split ({!arity}) and which split they keep ({!rule}).

    A split competes only if every piece's cycle-time is strictly below
    the interval's: a non-improving piece makes both the period argument
    and the paper's [Δlatency/Δperiod] ratio meaningless (DESIGN.md §2).
    {!step} scans the bottleneck's splits once, scoring, filtering and
    comparing each as it goes, and rebuilds only the winner (DESIGN.md
    §9).

    Restricted to communication-homogeneous platforms (the paper's
    setting): the constructor rejects other platforms. *)

open Pipeline_model

type t
(** A splitting configuration. Immutable: {!step} returns a new one. *)

type arity =
  | Two    (** every cut, the kept and given halves in both orders;
               the next unused processor takes the given half *)
  | Three  (** every cut pair, the split processor keeping any one part,
               the next two unused processors taking the other two in
               both orders; none when the interval has fewer than 3
               stages or fewer than 2 processors are left (H2, H3) *)
  | Three_or_two
      (** [Three], falling back to [Two] when no 3-way split improves.
          Not in the paper: the H2x/H3x extension (DESIGN.md,
          interpretation 2). *)

type rule =
  | Mono  (** smallest largest-piece cycle-time, ties by smaller latency
              increase *)
  | Bi    (** smallest [max_i Δlatency/Δperiod(i)] over the pieces, ties
              by smaller largest-piece cycle-time *)

val initial : Instance.t -> t
(** All stages on the fastest processor. Raises [Invalid_argument] when
    the platform is not communication homogeneous. *)

val period : t -> float
val latency : t -> float
val intervals : t -> int
(** Number of enrolled processors. *)

val unused : t -> int
(** Processors not yet enrolled. *)

val cycle : t -> int -> float
(** Cycle-time of interval [j] (0-based). *)

val length : t -> int -> int
(** Stage count of interval [j]. *)

val bottleneck : t -> int
(** Interval with the largest cycle-time (first on ties). *)

val step : arity:arity -> rule:rule -> t -> cap:float -> t option
(** The bottleneck's improving split of [arity] whose latency meets
    [cap] and that [rule] prefers, applied; the first split of the
    enumeration wins an exact tie. [None] when there is none. Under [Mono]
    the 2-way scan visits only the cuts near the one that balances the
    pieces' computation times, a lower bound of their cycle-times. *)

val stack : arity:arity -> rule:rule -> Instance.t -> t Loop.stack
(** {!step} from {!initial}, for {!Loop}'s drivers. *)

val to_solution : t -> Solution.t
(** Export the current mapping; objectives are recomputed independently
    with {!Pipeline_model.Cost} as a cross-check. *)
