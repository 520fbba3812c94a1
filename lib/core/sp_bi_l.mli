(** H6 — "Sp bi L": splitting, bi-criteria, fixed latency (§4.2).

    Variant of H5 selecting, at each step, the split that minimises
    [max_{i∈{j,j'}} Δlatency/Δperiod(i)] while the latency budget is not
    exceeded. *)

val solve : Pipeline_model.Instance.t -> latency:float -> Solution.t option
