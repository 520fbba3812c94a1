(** H1 — "Sp mono P": splitting, mono-criterion, fixed period (§4.1).

    Repeatedly split the bottleneck interval in two, giving one half to
    the next fastest unused processor, choosing the cut and orientation
    that minimise [max(period(j), period(j'))], while the prescribed
    period is not reached. *)

val solve : Pipeline_model.Instance.t -> period:float -> Solution.t option
(** Minimised latency under the period threshold; [None] on failure. *)

val reach : Pipeline_model.Instance.t -> float
(** {!Loop.reach} of {!solve}. *)
