(** H2 — "3-Explo mono": 3-exploration, mono-criterion, fixed period
    (§4.1).

    Split the bottleneck interval in three, keeping one part on its
    processor and handing the other two to the next pair of fastest
    unused processors; test all cut pairs and part-to-processor
    permutations and keep the one minimising
    [max(period(j), period(j'), period(j''))]. Strictly 3-way: when the
    bottleneck interval has fewer than 3 stages or fewer than two
    processors remain, the heuristic is stuck (see
    {!Explo_fallback} for the extension lifting this limitation). *)

val solve : Pipeline_model.Instance.t -> period:float -> Solution.t option
