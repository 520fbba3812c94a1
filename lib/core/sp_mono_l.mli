(** H5 — "Sp mono L": splitting, mono-criterion, fixed latency (§4.2).

    Same splitting mechanism as H1, but the break condition is the
    latency budget: splits are applied while they keep the latency within
    the threshold, driving the period down as far as possible.

    The result is not monotone in the budget: a larger budget can admit
    a higher-latency split early on that the greedy never revisits, and
    end on a higher period (44 of 100 001 random draws, 2 vs 1.2 x the
    optimal latency). What does hold: when the mapping found under the
    larger budget meets the smaller one, the smaller budget returns the
    same solution. *)

val solve : Pipeline_model.Instance.t -> latency:float -> Solution.t option
(** Minimised period under the latency threshold; [None] when even the
    optimal latency exceeds the threshold. *)
