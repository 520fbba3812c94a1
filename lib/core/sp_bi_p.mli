(** H4 — "Sp bi P": splitting, bi-criteria, fixed period, with a binary
    search over the authorised latency (§4.1).

    Each trial fixes an authorised latency (between the optimal latency
    and the latency of an unconstrained run) and attempts to reach the
    prescribed period by 2-way splits selected with the
    [Δlatency/Δperiod] ratio, discarding splits that would exceed the
    authorised latency. While trials succeed, the authorised latency is
    reduced — minimising the global latency of the final mapping.

    The search runs through {!Pipeline_model.Threshold.bisect}: identical
    midpoints and convergence test to the historical fixed 25-iteration
    loop (so results are bit-identical), but probing stops at
    convergence instead of spinning through the remaining iterations. *)

val max_probes : int
(** Probe budget of the cap bisection (25, the historical step count). *)

val solve : Pipeline_model.Instance.t -> period:float -> Solution.t option
