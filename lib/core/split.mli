(** Shared machinery of the six splitting heuristics (paper §4).

    Every heuristic maintains the same working state: processors sorted by
    non-increasing speed, a current interval mapping that starts with all
    stages on the fastest processor, and the cycle-time of each enrolled
    processor. A step selects the enrolled processor with the largest
    cycle-time ("largest period" in the paper) and splits its interval,
    handing pieces to the next not-yet-used processor(s) in the speed
    order. Heuristics differ only in how they split (2-way or 3-way) and
    which candidate split they retain (pure period improvement, or the
    latency-per-period-improvement ratio).

    This module generates, for a configuration and a target interval, all
    {e improving} candidates — those whose every piece has a cycle-time
    strictly below the interval's current cycle-time (a non-improving
    piece makes both the period argument and the paper's
    [Δlatency/Δperiod] ratio meaningless, cf. DESIGN.md) — with their
    global period, latency and ratio precomputed in O(1) amortised per
    candidate.

    Restricted to communication-homogeneous platforms (the paper's
    setting): the constructor rejects other platforms. *)

open Pipeline_model

type t
(** A splitting configuration. Immutable: {!apply} returns a new one. *)

type piece = {
  first : int;   (** first stage of the piece (1-based) *)
  last : int;    (** last stage *)
  proc : int;    (** processor assigned *)
  cycle : float; (** its cycle-time under the piece assignment *)
}

type candidate = {
  target : int;            (** index of the split interval *)
  pieces : piece list;     (** replacement, in pipeline order *)
  enrolled : int;          (** new processors consumed from the speed order *)
  max_piece_cycle : float; (** largest piece cycle-time *)
  period : float;          (** global period after the split *)
  latency : float;         (** global latency after the split *)
  dlatency : float;        (** latency increase w.r.t. the current config *)
  ratio : float;           (** [max_i Δlatency/Δperiod(i)] over the pieces *)
}

val initial : Instance.t -> t
(** All stages on the fastest processor. Raises [Invalid_argument] when
    the platform is not communication homogeneous. *)

val instance : t -> Instance.t
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

val two_split_candidates : t -> j:int -> candidate list
(** All improving 2-way splits of interval [j]: every cut position, the
    kept/given halves in both orders, the next unused processor taking the
    given half. Empty when interval [j] is a singleton or no processor is
    left. *)

val three_split_candidates : t -> j:int -> candidate list
(** All improving 3-way splits: every cut pair, processor [j] keeping any
    one of the three parts, the next two unused processors taking the
    other two in both orders. Empty when the interval has fewer than 3
    stages or fewer than 2 processors are left. *)

val apply : t -> candidate -> t
(** Commit a candidate (must have been generated from this configuration). *)

val to_solution : t -> Solution.t
(** Export the current mapping; objectives are recomputed independently
    with {!Pipeline_model.Cost} as a cross-check. *)
