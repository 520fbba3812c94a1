(** Stochastic pipeline execution on the event-driven kernel ({!Des}),
    with optional processor failures.

    The paper's evaluation is purely analytic and deterministic; a
    deployed schedule faces arrival processes, computation-time jitter
    and failing processors. This simulator executes a mapping under the
    one-port, no-overlap discipline of {!Runner} but with:

    {ul
    {- an {e arrival process} for the data sets — saturated (all ready at
       time 0, the paper's implicit regime), periodic, Poisson, or an
       explicit trace;}
    {- multiplicative {e computation-time noise}, drawn independently per
       (interval, data set) from a seeded stream, modelling OS jitter and
       data-dependent stage costs;}
    {- timed {e slowdowns} (permanent speed changes) and {e crashes} with
       optional recovery and a retry policy.}}

    Crash semantics:

    {ul
    {- a crashed processor loses its in-flight computation (the data set
       must be re-executed from scratch — there is no checkpointing);}
    {- while a processor is down, data transfers to and from it still
       complete (the interconnect is not the failed component) but no
       computation starts — under the one-port rendezvous discipline the
       stall back-pressures the upstream intervals;}
    {- on recovery, the retry policy re-executes lost data sets: each
       (interval, data set) computation may be retried up to
       [max_retries] times, each retry starting [backoff] simulated time
       units after the recovery;}
    {- a data set whose retries are exhausted (or whose processor never
       recovers) is {e dropped}: the drop propagates downstream so later
       intervals skip the missing data set, and the crashed interval
       moves on to its next data set — which, on a permanent crash,
       parks forever, stalling that interval and (by back-pressure)
       eventually the whole upstream pipeline.}}

    Everything is deterministic: crashes and slowdowns are explicit timed
    events, arrivals and noise are pre-drawn from the seeded stream, and
    a retried computation reuses the noise factor drawn for its
    (interval, data set) pair. Crash and recovery events are queued
    before the first pipeline event, so a crash beats a completion that
    falls on the same instant. With no noise, no slowdown, no crash and
    saturated arrivals the run reproduces {!Runner} (and therefore
    equations (1)–(2)) exactly — a property the test suite checks — so
    measured degradations are attributable to the stochastic ingredients
    alone. *)

open Pipeline_model

type arrival =
  | Saturated          (** every data set available at time 0 *)
  | Periodic of float  (** one data set every given time units *)
  | Poisson of float   (** exponential inter-arrivals with the given rate *)
  | Trace of float array
      (** explicit arrival instants, one per data set — the trace-driven
          regime of [Pipeline_stream]: entries must be finite,
          non-negative and non-decreasing, and there must be exactly
          [datasets] of them. A trace consumes nothing from the seeded
          streams, so swapping [Saturated] for [Trace (Array.make k 0.)]
          reproduces the saturated run bit-for-bit. *)

type noise =
  | No_noise
  | Uniform_factor of float
      (** computation times scaled by a uniform factor in
          [\[1-ε, 1+ε\]]; [ε] must be in [\[0, 1)] *)

type slowdown = {
  at : float;      (** simulated time the event takes effect *)
  proc : int;      (** affected processor *)
  factor : float;  (** speed multiplier from then on (0 < factor);
                       0.5 halves the speed, 2.0 is an upgrade *)
}
(** A permanent speed change — a thermal throttle, a co-scheduled job, a
    frequency boost. Computations {e starting} after [at] run at the new
    speed; multiple events on one processor compose. *)

type crash = {
  at : float;                 (** crash instant (≥ 0) *)
  proc : int;                 (** the processor that fails *)
  recover_at : float option;  (** [None]: permanent; [Some r] with
                                  [r > at]: the processor comes back *)
}

type retry = {
  max_retries : int;  (** re-execution budget per (interval, data set) *)
  backoff : float;    (** simulated delay between recovery and re-execution *)
}

val no_retry : retry
(** [{ max_retries = 0; backoff = 0. }] — lost work is dropped. *)

type config = {
  arrival : arrival;
  noise : noise;
  slowdowns : slowdown list;
  crashes : crash list;
  retry : retry;
  datasets : int;
  seed : int;  (** drives arrivals and noise; same seed, same run *)
}

val default_config : config
(** Saturated, no noise, no slowdowns, no crashes, {!no_retry}, 200 data
    sets, seed 0. *)

val validate : config -> Instance.t -> Mapping.t -> unit
(** The validation {!run} performs before simulating, exposed so drivers
    that simulate later ([Pipeline_stream.Stream_sim]) reject a
    configuration up front. Raises [Invalid_argument] as documented on
    {!run}. *)

type stats = {
  completed : int;           (** data sets that made it through *)
  makespan : float;          (** completion of the last data set *)
  steady_period : float;     (** running-max completion slope, 2nd half *)
  throughput : float;        (** completed / makespan *)
  latency_mean : float;      (** service latency: completion - first transfer *)
  latency_p95 : float;
  latency_max : float;
  sojourn_max : float;       (** completion - arrival (includes source wait) *)
  latencies : float list;    (** per completed data set, in arrival order *)
  offered : int;             (** the configured number of data sets *)
  dropped : int;             (** data sets abandoned after exhausting retries *)
  killed : int;              (** in-flight computations lost to a crash *)
  retries : int;             (** re-executions scheduled *)
}
(** Measured over the data sets that completed. When nothing completes,
    makespan/period/throughput are 0 and the latency statistics are
    [nan]. *)

val survival : stats -> float
(** [completed / offered] — the fraction of the offered data sets that
    made it through. *)

val run : ?config:config -> Instance.t -> Mapping.t -> stats
(** Raises [Invalid_argument] when the configuration or the mapping is
    invalid. The rejected configurations are, exhaustively:

    {ul
    {- [datasets < 1];}
    {- a mapping whose stage count differs from the application's, or
       that references processors outside the platform;}
    {- a [Uniform_factor ε] noise with [ε] outside [\[0, 1)] (or NaN);}
    {- a [Periodic]/[Poisson] rate that is not finite and [> 0];}
    {- a [Trace] whose length differs from [datasets], or with an entry
       that is negative, not finite, or smaller than its predecessor;}
    {- a slowdown whose [factor] is not finite and [> 0] (zero and
       negative factors are crashes, not slowdowns);}
    {- a slowdown or a crash scheduled at a negative (or NaN) time;}
    {- a slowdown or a crash naming a processor outside the platform;}
    {- a recovery not strictly after its crash, or not finite;}
    {- overlapping crash windows on one processor (a processor must
       recover before it can crash again);}
    {- [max_retries < 0], or a [backoff] that is negative or not
       finite.}} *)
