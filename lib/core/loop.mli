(** The one splitting walk of every heuristic stack (paper §4).

    Every stack starts from a single-processor mapping and repeatedly
    applies the best improving move of the current bottleneck interval.
    Stacks differ only in their starting mapping, their moves and the
    rule that picks one, which a {!stack} carries: {!Split.stack} (H1–H6,
    H2x, H3x), [Het_heuristics] and [Deal_heuristic]. The walk and its
    three drivers are written once, here.

    {ul
    {- {e Period fixed} (H1–H4): walk until the period meets the
       threshold; succeed iff it does. H4 also caps the moves' latency.}
    {- {e Latency fixed} (H5, H6): walk to the end with the moves capped
       at the threshold; succeed iff the starting mapping meets it.}
    {- {!reach}: the final period of the uncapped walk (DESIGN.md §9).}} *)

type 'a stack = {
  start : 'a;  (** where the walk begins *)
  period : 'a -> float;
  latency : 'a -> float;
  step : 'a -> cap:float -> 'a option;
      (** The best improving move of the bottleneck whose latency meets
          [cap] ({!Pipeline_util.Tol.meets}), applied; [None] when no
          move is left. *)
}

val minimise_latency_under_period :
  ?latency_cap:float -> 'a stack -> period:float -> 'a option
(** Walk until the period meets the threshold, with every move's latency
    capped at [latency_cap] (default [+∞]); [None] when it never does. *)

val minimise_period_under_latency : 'a stack -> latency:float -> 'a option
(** Walk to the end, capped at the threshold; [None] when even the
    starting mapping violates it. *)

val reach : 'a stack -> float
(** Final period of the uncapped walk. The bound only decides where the
    period-fixed walk stops and every move lowers the period, so
    [minimise_latency_under_period s ~period] succeeds iff
    [Tol.meets (reach s) period] (DESIGN.md §9). *)
