(** The unified solver registry: every heuristic of every stack — the
    paper's six, the fallback extensions, and the het / deal /
    fault-tolerance extensions — as uniform rows with stable ids.

    This is the single lookup surface for the CLI ([pipeline_sched solve
    --heuristic ID], [list]), the experiment campaign and the bench.
    {!Pipeline_core.Registry} remains the core stack's internal table
    (and keeps its historical ids — they are embedded here unchanged);
    the per-stack registries it used to coexist with are gone.

    Every row answers the same question as the paper's heuristics: given
    a threshold on the fixed criterion, optimise the free one. Rows
    return a replicated {!Pipeline_model.Deal_mapping} so that plain and
    replicated solvers share one outcome type; plain mappings round-trip
    via {!Pipeline_model.Deal_mapping.to_mapping}. *)

open Pipeline_model

type kind = Pipeline_core.Registry.kind =
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
      (** failure probability, for rows run with a reliability context *)
}

type context = {
  rel : Reliability.t option;
      (** per-processor failure probabilities; default: uniform
          {!default_fail_prob} over the platform *)
  failure_bound : float option;
      (** tri-criteria failure bound; default {!default_failure_bound} *)
}

val default_context : context
(** [{ rel = None; failure_bound = None }]. *)

val default_fail_prob : float
(** Uniform per-processor failure probability assumed by [ft-rep-tri]
    when the context supplies no reliability vector (0.05). *)

val default_failure_bound : float
(** Failure bound assumed by [ft-rep-tri] when the context supplies none
    (0.1). *)

type info = {
  id : string;          (** stable machine name, e.g. ["h1-sp-mono-p"] *)
  paper_name : string;  (** legend name used in the plots *)
  table_name : string;  (** row name in Table 1 (H1 … H6) and reports *)
  kind : kind;
  stack : stack;
  solve : ?ctx:context -> Instance.t -> threshold:float -> outcome option;
      (** [None] when the heuristic cannot meet the threshold. The
          context only affects the [Ft] row; every other stack ignores
          it. *)
  reach : (Instance.t -> float) option;
      (** For every [t], [solve inst ~threshold:t <> None] iff
          [Tol.meets (reach inst) t] (DESIGN.md §9). [None] only for the
          [Ft] row, whose replication step reads the bound. *)
}

val paper : info list
(** The six heuristics in Table 1 order (H1 … H6), stack [Core]. *)

val extended : info list
(** [h2x-3explo-mono-fb], [h3x-3explo-bi-fb] — stack [Extension]. *)

val het : info list
(** [het-sp-mono-p], [het-sp-bi-p], [het-sp-mono-l], [het-sp-bi-l] —
    stack [Het], in that order (HetP, HetPb, HetL, HetLb). *)

val deal : info list
(** [deal-split-rep-p] (DealP, period fixed), [deal-split-rep-l] (DealL,
    latency fixed) — stack [Deal]. *)

val ft : info list
(** [ft-rep-tri] (FtTri, period fixed): minimise latency under the
    period threshold and the context's failure bound. *)

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
