(** Driver loop shared by the heuristics.

    Both paper families follow the same skeleton: start from the
    latency-optimal configuration (everything on the fastest processor)
    and repeatedly split the current bottleneck interval, handing stages
    to the next fastest unused processor(s). That skeleton is one
    {!walk}; the families differ only in when it stops.

    {ul
    {- {e Period fixed} (H1–H4): walk until the period meets the
       threshold; succeed iff it does. The selection rule and an optional
       latency cap (H4) are parameters.}
    {- {e Latency fixed} (H5, H6): walk while improving candidates exist
       that keep the latency within the threshold, driving the period as
       low as possible; succeed iff the optimal latency itself respects
       the threshold.}} *)

open Pipeline_model

type gen = Split.t -> j:int -> Split.candidate list
(** Candidate generator for the bottleneck interval [j]. *)

type select = Split.candidate list -> Split.candidate option
(** Retain one candidate of a non-empty filtered list ([None] to stop). *)

val walk :
  ?latency_cap:float ->
  gen:gen -> select:select -> stop:(Split.t -> bool) -> Instance.t -> Split.t
(** From {!Split.initial}, apply the selected candidate of the
    bottleneck interval until [stop] holds or none is left; returns the
    configuration where it stopped. Candidates whose latency exceeds
    [latency_cap] (default [+∞]) are discarded before selection. *)

val minimise_latency_under_period :
  ?latency_cap:float ->
  gen:gen ->
  select:select ->
  Instance.t ->
  period:float ->
  Solution.t option
(** Period-fixed family: {!walk} until the period meets the threshold;
    [None] when it never does. *)

val minimise_period_under_latency :
  gen:gen -> select:select -> Instance.t -> latency:float -> Solution.t option
(** Latency-fixed family: {!walk} to the end, capped at the threshold;
    [None] when even the starting mapping violates it. *)

val reach : gen:gen -> select:select -> Instance.t -> float
(** Final period of the cap-free {!walk} that never stops early. The
    bound only decides where that walk stops and every split lowers the
    period, so [minimise_latency_under_period ~gen ~select inst ~period]
    succeeds iff [Tol.meets (reach ~gen ~select inst) period]
    (DESIGN.md §9). *)

val select_mono : select
(** Minimise the largest piece cycle-time ([max(period(j), period(j')) ]
    in the paper); ties broken by smaller latency increase. *)

val select_bi : select
(** Minimise the paper's [max_i Δlatency/Δperiod(i)] ratio; ties broken by
    smaller largest piece cycle-time. *)

val gen_two : gen
(** {!Split.two_split_candidates}. *)

val gen_three : gen
(** {!Split.three_split_candidates}. Pure 3-way exploration, as measured
    in the paper: when the bottleneck interval has fewer than 3 stages or
    fewer than two processors remain, the heuristic is stuck — which is
    why the paper's Table 1 shows much higher failure thresholds for the
    3-exploration heuristics than for the splitting ones. *)

val gen_three_with_fallback : gen
(** {!Split.three_split_candidates}, falling back to 2-way splits when the
    interval is too short or only one processor remains. Not in the
    paper: an extension evaluated by the ablation bench (cf. DESIGN.md,
    interpretation 2). *)
