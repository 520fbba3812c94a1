(** Exhaustive tri-criteria oracle (validation only).

    Enumerates every deal mapping via
    {!Pipeline_deal.Deal_exhaustive.fold} and keeps the minimum-latency
    one among those meeting both the period bound and the failure bound
    (ties: lower period, then lower failure probability). The ground
    truth for [Ft_heuristic] on tiny instances; inherits the enumeration
    size guard. *)

open Pipeline_model

val min_latency :
  Instance.t -> Reliability.t -> period:float -> failure:float ->
  Ft_heuristic.solution option
(** [None] when no deal mapping satisfies both bounds. Raises
    [Invalid_argument] on oversized instances (the enumeration guard)
    and on the same bad inputs as {!Ft_heuristic.minimise_latency}. *)
