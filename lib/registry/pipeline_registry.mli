(** The solver registry: every heuristic of every stack — the paper's
    six, the fallback extensions, and the het / deal / fault-tolerance
    extensions — as uniform rows with stable ids.

    This is the one lookup surface for the CLI ([pipeline_sched solve
    --heuristic ID], [list]), the serve daemon, the experiment campaign
    and the bench. The comm-homogeneous rows call the paper's solvers
    ({!Pipeline_core.Sp_mono_p} … {!Pipeline_core.Explo_fallback})
    directly; their ids are the historical Table 1 ids.

    Every row answers the same question as the paper's heuristics: given
    a threshold on the fixed criterion, optimise the free one. Rows
    return a replicated {!Pipeline_model.Deal_mapping} so that plain and
    replicated solvers share one outcome type; plain mappings round-trip
    via {!Pipeline_model.Deal_mapping.to_mapping}. *)

open Pipeline_model

type kind =
  | Period_fixed   (** the threshold is a period; the output minimises latency *)
  | Latency_fixed  (** the threshold is a latency; the output minimises period *)

type stack =
  | Core       (** the paper's six splitting heuristics (comm-hom) *)
  | Extension  (** 3-exploration with 2-way fallback (comm-hom) *)
  | Het        (** splitting for fully heterogeneous platforms *)
  | Deal       (** interval replication (deal skeleton, comm-hom) *)
  | Ft         (** tri-criteria replication under a failure bound *)

type outcome = {
  mapping : Deal_mapping.t;
  period : float;
  latency : float;
  failure : float option;
      (** failure probability, for the [Ft] row *)
}

val default_fail_prob : float
(** Uniform per-processor failure probability the [ft-rep-tri] row
    assumes (0.05). *)

val default_failure_bound : float
(** Failure bound the [ft-rep-tri] row solves under (0.1). The CLI's
    [solve --reliability] calls {!Pipeline_ft.Ft_heuristic} with its own
    vector and bound instead. *)

type info = {
  id : string;          (** stable machine name, e.g. ["h1-sp-mono-p"] *)
  paper_name : string;  (** legend name used in the plots *)
  table_name : string;  (** row name in Table 1 (H1 … H6) and reports *)
  kind : kind;
  stack : stack;
  solve : Instance.t -> threshold:float -> outcome option;
      (** [None] when the heuristic cannot meet the threshold. *)
  reach : (Instance.t -> float) option;
      (** For every [t], [solve inst ~threshold:t <> None] iff
          [Tol.meets (reach inst) t] (DESIGN.md §9). [None] only for the
          [Ft] row, whose replication step reads the bound. *)
}

val paper : info list
(** The six heuristics in Table 1 order, stack [Core]:
    H1 [h1-sp-mono-p] (Sp mono, P fix), H2 [h2-3explo-mono]
    (3-Explo mono), H3 [h3-3explo-bi] (3-Explo bi), H4 [h4-sp-bi-p]
    (Sp bi, P fix), H5 [h5-sp-mono-l] (Sp mono, L fix), H6
    [h6-sp-bi-l] (Sp bi, L fix). *)

val extended : info list
(** The 3-exploration heuristics with a 2-way-split fallback, for the
    ablation benches: [h2x-3explo-mono-fb] (H2x),
    [h3x-3explo-bi-fb] (H3x) — stack [Extension]. *)

val het : info list
(** [het-sp-mono-p], [het-sp-bi-p], [het-sp-mono-l], [het-sp-bi-l] —
    stack [Het], in that order (HetP, HetPb, HetL, HetLb). *)

val deal : info list
(** [deal-split-rep-p] (DealP, period fixed), [deal-split-rep-l] (DealL,
    latency fixed) — stack [Deal]. *)

val ft : info list
(** [ft-rep-tri] (FtTri, period fixed): minimise latency under the
    period threshold and {!default_failure_bound}, with every processor
    failing with probability {!default_fail_prob}. *)

val all : info list
(** [paper @ extended @ het @ deal @ ft]. *)

val find : string -> info option
(** Look up by [id], [table_name] or [paper_name] (case-insensitive)
    across {!all}. *)

val resolve : ?kind:kind -> string -> (info, string) result
(** {!find} with the canonical diagnostics: [Error] carries the one-line
    message for an unknown id, or — when [kind] is given — for a row
    whose threshold kind does not match. Both the CLI (exit 2) and the
    serve daemon (HTTP 400, see doc/serving.mld) resolve requests
    through this, so the two surfaces reject with identical wording. *)

val solution_of_outcome : outcome -> Pipeline_core.Solution.t option
(** The outcome as a plain {!Pipeline_core.Solution.t} when no interval
    is replicated ([None] otherwise). Objective values are copied, not
    recomputed. *)

(** {2 Platform-kind dispatch}

    The solver choices the CLI and the serve daemon share, so that both
    surfaces answer the same requests (DESIGN.md §13). *)

val exact :
  Instance.t -> kind -> threshold:float -> (Pipeline_core.Solution.t option, string) result
(** The exact answer for the threshold: the bi-criteria DP on a
    comm-homogeneous platform, the exhaustive oracle otherwise, and
    [Error] with {!Pipeline_optimal.Exhaustive.oversized}'s diagnostic
    (the CLI's exit-2 line, the daemon's 400 body) past its guard. *)

val exact_pareto : Instance.t -> (Pipeline_core.Solution.t list, string) result
(** The exact Pareto front, dispatched and guarded as {!exact}. *)

val default_mapping : Instance.t -> period:float -> Pipeline_core.Solution.t option
(** The mapping [simulate] runs when none is given: H1 on a
    comm-homogeneous platform, het splitting otherwise. *)
