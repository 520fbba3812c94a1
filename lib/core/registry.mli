(** Uniform access to the six heuristics — the experiment campaign, the
    CLI and the benches all iterate over {!all}. *)

open Pipeline_model

type kind =
  | Period_fixed   (** the threshold is a period; the output minimises latency *)
  | Latency_fixed  (** the threshold is a latency; the output minimises period *)

type info = {
  id : string;          (** stable machine name, e.g. ["h1-sp-mono-p"] *)
  paper_name : string;  (** legend name used in the paper's plots *)
  table_name : string;  (** row name in the paper's Table 1 (H1 … H6) *)
  kind : kind;
  solve : Instance.t -> threshold:float -> Solution.t option;
  reach : Instance.t -> float;
      (** For every [t], [solve inst ~threshold:t <> None] iff
          [Tol.meets (reach inst) t]: the final period of the bound-free
          walk, or the starting latency (DESIGN.md §9). *)
}

val all : info list
(** The six heuristics in Table 1 order:
    H1 Sp mono P, H2 3-Explo mono, H3 3-Explo bi, H4 Sp bi P,
    H5 Sp mono L, H6 Sp bi L. *)

val find : string -> info option
(** Look up by [id], [table_name] (case-insensitive) or [paper_name]. *)

val period_fixed : info list
val latency_fixed : info list

val extended : info list
(** Extensions beyond the paper, for the ablation benches: the
    3-exploration heuristics with a 2-way-split fallback
    (["h2x-3explo-mono-fb"], ["h3x-3explo-bi-fb"]). Not part of {!all}. *)

val with_extensions : info list
(** [all @ extended]. *)
