(** Extension campaign E5: the paper's experiments transposed to fully
    heterogeneous platforms (its §7 future work).

    Random E2-style applications on platforms with per-link bandwidths
    (integer speeds in [\[1,20\]], link bandwidths in [\[5,15\]] around
    the paper's [b = 10]); the four het splitting heuristics of
    {!Pipeline_het.Het_heuristics} are swept exactly like the paper's
    figures, and the communication-oblivious baseline anchors the
    comparison.

    Beyond the sweep, the campaign measures {e exact} thresholds per
    bandwidth-matrix family ({!threshold_table}) and validates the het
    heuristics against the exhaustive oracle on small instances
    ({!validate}); both route every probe through the
    [experiments.het.*] counters so the historical metrics rows never
    move (DESIGN.md §13). *)

open Pipeline_model

val instances : ?pairs:int -> ?seed:int -> n:int -> int -> Instance.t list
(** [instances ~n p] — deterministic batch of fully heterogeneous
    instances. *)

(** {1 Bandwidth-matrix families}

    Generator families for the fully-het campaign (DESIGN.md §13). The
    first three draw E2-style applications and differ in the link
    structure; [Jpeg2000] runs the fixed five-stage encoder pipeline of
    {!App_generator.jpeg2000} on clustered platforms. *)

type family =
  | Uniform_links  (** i.i.d. links in [\[5,15\]]
                       ({!Platform_generator.fully_heterogeneous}) *)
  | Clustered      (** two clusters, fat intra / thin inter links
                       ({!Platform_generator.clustered}) *)
  | Bottleneck     (** one processor behind a slow link
                       ({!Platform_generator.bottleneck_link}) *)
  | Jpeg2000       (** fixed JPEG2000 encoder app, clustered platform *)

val families : family list
(** All four, in rendering order. *)

val family_name : family -> string
(** Stable lowercase name ([uniform], [clustered], [bottleneck],
    [jpeg2000]) — used in instance tags, table headers, CSV columns and
    the CLI [--family] values. *)

val family_instance :
  seed:int -> family:family -> n:int -> p:int -> int -> Instance.t
(** [family_instance ~seed ~family ~n ~p i] — the [i]-th instance of
    the family's deterministic batch. The tag stream is keyed on
    [(seed, "E5-" ^ family_name, n, p, i)], distinct from {!instances}'
    historical ["E5"] tag, so existing artefacts are unaffected.
    [Jpeg2000] ignores [n] (the encoder has five stages). *)

val family_instances :
  ?pairs:int -> ?seed:int -> family:family -> n:int -> int -> Instance.t list
(** Batch of {!family_instance}s (generated on the domain pool,
    index-ordered). *)

(** {1 Exact thresholds per family} *)

val instance_threshold : Pipeline_registry.info -> Instance.t -> float
(** {!Failure.search} on one het registry row and one instance: binary
    search over the fully-het candidate set ({!Candidates.periods}) for
    period-direction rows, adaptive bisection for latency-direction
    rows. Probes are tallied on [experiments.het.threshold_probes]
    (feasibility probes) and [experiments.het.search_probes] (search
    probes), {e not} on the historical threshold counters. *)

type threshold_table = {
  n : int;
  p : int;
  pairs : int;
  table_families : family list;
  rows : (string * float list) list;
      (** per het registry row: table name, mean threshold per family
          (column order = [table_families]) *)
}

val threshold_table :
  ?pairs:int -> ?seed:int -> n:int -> p:int -> unit -> threshold_table
(** Mean exact threshold of each het heuristic on each family
    ([pairs] defaults to 10). Deterministic and bit-identical at any
    [--jobs]: per-instance searches fan out on the pool, means fold in
    index order. *)

val threshold_table_header : threshold_table -> string list
(** ["heuristic"] followed by the family names — shared by the text
    table and the CSV artefact. *)

val render_threshold_table : threshold_table -> string
(** Aligned text rendering with a one-line title. *)

(** {1 Validation against the exhaustive oracle} *)

type validation = { runs : int; mean_ratio : float; max_ratio : float }

val validate : ?runs:int -> ?seed:int -> family:family -> unit -> validation
(** Ratio of the het heuristic's unconstrained-best period
    ({!Pipeline_het.Het_heuristics.reach}) to
    {!Pipeline_optimal.Exhaustive.min_period}, over
    [runs] (default 20) small instances (n ∈ [\[3,8\]], p ∈ [\[2,6\]])
    of the family. [mean_ratio ≥ 1.] and [max_ratio ≥ 1.] always; both
    equal [1.] when the heuristic is optimal on every draw. *)

val figure :
  ?pairs:int -> ?sweep_points:int -> ?seed:int -> n:int -> int -> Campaign.figure
(** Latency-versus-period series for the four het heuristics (labelled
    like the paper's legends), plus a single-point series for the
    balanced-chains baseline at its achieved objectives. *)
