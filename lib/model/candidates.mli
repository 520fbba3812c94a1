(** The finite candidate sets of the exact threshold searches.

    Equation (1) makes a mapping's period the {e max} of its interval
    cycle-times, so every achievable period is one of the finitely many
    values [cycle(d, e, config)] over the engine's
    {!Cost.candidate_configs} — the speed representatives on a
    comm-homogeneous platform ([n(n+1)/2 × |distinct speeds|] values,
    DESIGN.md §9), and the (speed, boundary-in, boundary-out)
    configuration family on a fully heterogeneous one
    ([O(n² · p³)] naively, DESIGN.md §13) — and a threshold search over
    periods only needs to probe those. The arrays returned here are
    sorted, deduplicated, produced by the engine's own
    {!Cost.config_cycle} expressions (no new float associations), and
    cached lazily on the engine, so enumeration is paid once per
    [(application, platform)] pair.

    Every function works on every platform kind. On fully heterogeneous
    platforms the set is a {e superset} of the achievable periods (not
    every configuration is realisable by a mapping), but threshold
    searches over it remain exact: a monotone feasibility probe flips at
    an achievable — hence member — value, so the smallest feasible
    candidate is the true threshold. *)

val periods : Cost.t -> float array
(** Sorted, deduplicated cycle-times over every interval and candidate
    configuration: a complete (on fully heterogeneous platforms,
    superset) enumeration of the achievable periods for plain interval
    mappings. Built on first use, cached on the engine. *)

val deal_periods : Cost.t -> float array
(** The deal-replication variant: every plain candidate divided by every
    replication factor [1..p] — a superset of the periods achievable by
    {!Cost.deal_period} (round-robin deals). Built on first use, cached
    on the engine. *)

val of_values : float list -> float array
(** Sort and deduplicate an explicit candidate list (exact float
    equality). Raises [Invalid_argument] on NaN. *)

val mem : float array -> float -> bool
(** [mem candidates v] — binary search for exact membership in a sorted
    candidate array. *)

val ceiling : float array -> float -> float option
(** [ceiling candidates v] — the smallest candidate [>= v], or [None]
    when [v] exceeds them all. Used to snap relaxation lower bounds up
    onto the achievable grid. *)

val floor : float array -> float -> float option
(** [floor candidates v] — the largest candidate [<= v], or [None] when
    [v] is below them all. *)

(** Candidate sets that may stay implicit (DESIGN.md §11).

    At paper sizes a set is the materialised sorted array above —
    byte-identical behaviour, same engine cache. Past the materialisation
    cap, applications with {e uniform} deltas switch to a lazy lattice
    view: cycle-times are weakly monotone in the interval work sum at
    fixed configuration, so minimum, maximum, floor and ceiling are
    answered by the O(n · |configs|) allocation-free two-pointer sweeps
    of {!Cost.lattice_bounds}, {!Cost.lattice_floor} and
    {!Cost.lattice_ceiling} over the implicit [(d, e, config)] lattice,
    each comparison evaluating the engine's own {!Cost.config_cycle}
    float. Every answer is an attained set element, bit-identical to
    the value the materialised array would hold — {!Threshold.search_set}
    builds an exact web-scale binary search on top of exactly these
    queries, at one floor sweep per probing round plus a floor and a
    ceiling per run of empty rounds. *)
module Set : sig
  type t

  val of_engine : ?max_materialised:int -> Cost.t -> t
  (** The candidate-period set of an engine, on any platform kind.
      Materialised (via {!periods}, hence engine-cached) while
      [n(n+1)/2 · |configs| <= max_materialised] (default [2²²]); lazy
      above the cap when the application's deltas are all equal.
      Non-uniform deltas above the cap materialise anyway — the
      monotone structure the lattice view needs is absent (DESIGN.md
      §11). *)

  val of_array : float array -> t
  (** Wrap an explicitly materialised sorted candidate array (e.g.
      {!deal_periods}). *)

  val is_lazy : t -> bool

  val min_elt : t -> float option
  (** Smallest element; [None] only for an empty {!of_array}. O(1): a
      lazy set finds both extremes once, when {!of_engine} builds it. *)

  val max_elt : t -> float option

  val mem : t -> float -> bool
  (** Exact membership. *)

  val floor : t -> float -> float option
  (** Largest element [<= v]. O(log count) materialised, one
      {!Cost.lattice_floor} sweep lazy. *)

  val ceiling : t -> float -> float option
  (** Smallest element [>= v]. O(log count) materialised, one
      {!Cost.lattice_ceiling} sweep lazy. *)

  val force : t -> float array
  (** The materialised sorted array (enumerates a lazy set — test and
      paper-size use only). *)
end
