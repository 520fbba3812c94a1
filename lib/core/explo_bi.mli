(** H3 — "3-Explo bi": 3-exploration, bi-criteria, fixed period (§4.1).

    Same 3-way splitting mechanism as H2, but the retained candidate
    minimises [max_{i∈{j,j',j''}} Δlatency/Δperiod(i)] — the latency
    price paid per unit of period improvement. *)

val solve : Pipeline_model.Instance.t -> period:float -> Solution.t option
