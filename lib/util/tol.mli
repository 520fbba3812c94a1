(** The two float tolerances every threshold comparison in the code base
    uses, hoisted so no solver carries a private copy of the formula.

    Both are {e relative to the threshold} with an absolute floor of 1:
    thresholds in this code base are periods and latencies of order
    0.1–1000, so [rel *. Float.max 1. x] behaves like a relative
    tolerance on realistic magnitudes yet stays meaningful when a
    threshold approaches zero. Call sites must use these helpers verbatim
    — the exact float expression is part of the determinism contract
    (bit-identical results at any [--jobs N] require every comparison to
    evaluate the same bits). *)

val accept_rel : float
(** [1e-9] — the acceptance slack for "value meets threshold" tests.
    Separates genuine constraint violations from float noise accumulated
    by the cost evaluations on either side of the comparison. *)

val meets : float -> float -> bool
(** [meets value threshold] — true when [value] is below [threshold] up
    to [accept_rel] relative slack. The single acceptance test used by
    every heuristic's threshold check (periods and latencies alike). *)

val bisect_rel : float
(** [1e-12] — the convergence width for bisections, three orders of
    magnitude below {!accept_rel} so a converged bracket cannot straddle
    an acceptance decision. *)

val converged : ?rel:float -> lo:float -> hi:float -> unit -> bool
(** [converged ~lo ~hi ()] — the bracket [\[lo, hi\]] is narrower than
    [rel *. Float.max 1. hi] (default [bisect_rel]), or a single point,
    infinite ones included: further probes cannot move the answer by
    more than float noise. *)
