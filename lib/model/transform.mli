(** Application transformations.

    {!coarsen} fuses consecutive stages into groups, shrinking [n] so
    the exponential exact solvers (or the heuristics, on very deep
    pipelines) become cheap — at the cost of restricting cut positions to
    group boundaries. The key property, checked by the test suite: a
    mapping of the coarsened application and its {!refine_mapping} lift
    have {e identical} period and latency on the original application,
    because group-boundary communications and group work sums are
    preserved exactly. Coarse solutions are therefore feasible (possibly
    suboptimal) solutions of the original instance.

    {!scale} converts units (e.g. Mcycles to Gcycles, MB to GB) without
    changing the mapping problem's structure.

    {!scale_rates}, {!drop_comm} and {!comm_homogenise} are the
    metamorphic transformations: instance rewrites with {e known exact}
    effects on every solver's output, checked against the whole registry
    by the property suite (DESIGN.md §13, "Transform laws as
    whole-registry oracles"). *)

val coarsen : factor:int -> Application.t -> Application.t
(** Fuse groups of [factor] consecutive stages (the last group may be
    smaller). Group work = sum of its stages; the messages at group
    boundaries survive, interior ones disappear. [factor ≥ 1]. Labels
    are joined with ["+"]. *)

val refine_mapping : factor:int -> n:int -> Mapping.t -> Mapping.t
(** Lift a mapping of the coarsened application (with [⌈n/factor⌉]
    stages) back onto the original [n] stages. Raises [Invalid_argument]
    when shapes do not line up. *)

val coarse_solve :
  factor:int ->
  solve:(Instance.t -> Mapping.t option) ->
  Instance.t ->
  Mapping.t option
(** Solve the coarsened instance with [solve] and lift the result. *)

val scale : ?work:float -> ?data:float -> Application.t -> Application.t
(** Multiply all works by [work] and all message sizes by [data]
    (defaults 1). Factors must be strictly positive. *)

val scale_rates : factor:float -> Platform.t -> Platform.t
(** {!Platform.scale_rates}: uniform speed/bandwidth scaling. Every
    cost is [X / rate], so all periods and latencies scale by
    [1/factor] — bit-exactly for power-of-two factors — and optimal
    mappings are unchanged. *)

val drop_comm : Application.t -> Application.t
(** Zero every message size ([δ_0 … δ_n] := 0), keeping works and
    labels. All communication terms become exactly [0 / b = 0.] for any
    bandwidth, so solver outputs coincide bit-for-bit across platforms
    that differ only in their links — in particular a fully
    heterogeneous platform collapses onto its {!comm_homogenise}
    twin. *)

val comm_homogenise : bandwidth:float -> Platform.t -> Platform.t
(** Replace every link and I/O bandwidth with the single [bandwidth],
    keeping the speed vector: the comm-homogeneous twin of a fully
    heterogeneous platform. *)
