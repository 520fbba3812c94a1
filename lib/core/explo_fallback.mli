(** Extension (not in the paper): 3-exploration heuristics that fall back
    to a 2-way split when the bottleneck interval has fewer than 3 stages
    or a single unused processor remains.

    The paper's pure 3-exploration gets stuck in exactly those states,
    which is why its Table 1 failure thresholds are so much higher than
    the splitting heuristics'. These variants remove that failure mode at
    no asymptotic cost; the ablation bench quantifies the gain. *)

val solve_mono : Pipeline_model.Instance.t -> period:float -> Solution.t option
(** H2 with fallback (registry row H2x). *)

val solve_bi : Pipeline_model.Instance.t -> period:float -> Solution.t option
(** H3 with fallback (registry row H3x). *)
