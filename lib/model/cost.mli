(** The cost engine: one implementation of the paper's equations (1)–(2)
    per platform kind, shared by every solver stack.

    An engine is built once per [(application, platform)] pair and owns
    all period/latency/failure evaluation:

    {ul
    {- {e plain interval mappings} ({!period}, {!latency}, {!summary}) on
       any platform — comm-homogeneous platforms recover the paper's
       formulas verbatim, fully heterogeneous ones use the actual link
       bandwidths (the extension of DESIGN.md §6);}
    {- the {e deal-replication layer} ({!deal_period}, {!deal_latency},
       …) on comm-homogeneous platforms (DESIGN.md §7);}
    {- the {e reliability layer} ({!failure}, {!ft_summary}) combining a
       deal mapping with a {!Reliability} vector.}}

    {2 Memoisation and determinism}

    The engine's eager state is O(n + p) flat float arrays: the interval
    work sums [W(d,e)] are served straight from
    {!Application.work_sum}'s prefix table as an O(1) difference (no
    per-engine triangular copy), and the communication terms
    [δ_{d-1}/b] and [δ_e/b] are tabulated once on comm-homogeneous
    platforms — so construction is O(n + p) at any instance size
    (DESIGN.md §11). Only the lazy full cycle-time table indexed by
    [(d, e, u)] is quadratic in [n]; above a fixed size cap it falls
    back to direct evaluation (still bit-identical). Every cached value
    is produced by exactly the float expression the pre-engine code
    evaluated, in the same IEEE-754 association, so memoisation cannot
    move a single bit: a cache hit returns the very float a cache miss
    would compute.

    Engines are {e not} thread-safe: the lazy cycle table is mutated in
    place. {!get} hands out engines from a small per-domain LRU
    (domain-local storage), which is what every solver should use;
    {!make} builds a private engine that the LRU does not hold. *)

type t
(** A cost engine for one [(application, platform)] pair. *)

val make : Application.t -> Platform.t -> t
(** [make app platform] builds an engine outside {!get}'s LRU. *)

val get : Application.t -> Platform.t -> t
(** The shared, memoising engine for this domain. Cached on physical
    equality of both arguments in a small per-domain LRU, so repeated
    evaluation of the same instance — the common solver pattern — reuses
    all tables with no synchronisation, and callers that alternate
    between a handful of instances (the failure campaign's rows, the
    streaming resolver's live/survivor pair) never re-enumerate their
    candidate sets. *)

type cache_stats = {
  engine_builds : int;  (** engines constructed by {!make} *)
  lru_hits : int;  (** {!get} calls served from the per-domain LRU *)
  lru_misses : int;  (** {!get} calls that had to build *)
  candidate_builds : int;  (** candidate-period enumerations *)
  deal_candidate_builds : int;  (** deal candidate enumerations *)
}

val cache_stats : unit -> cache_stats
(** Process-wide tallies of engine-cache traffic, summed over domains.
    Deliberately {e not} {!Obs} counters: the split of hits/misses
    across domains depends on [--jobs], so these are not jobs-invariant
    and must stay out of the golden-gated metrics dump. The bench
    reports them in the perf-summary's informational "cache" block. *)

val application : t -> Application.t

val platform : t -> Platform.t

val cached_candidates : t -> build:(t -> float array) -> float array
(** Lazily caches the sorted candidate-period array on the engine: the
    first call runs [build] and stores its result, later calls return
    the stored array. The enumeration lives in {!Candidates} — use
    {!Candidates.periods}, not this hook. *)

val cached_deal_candidates : t -> build:(t -> float array) -> float array
(** Same cache slot for the deal-replication candidate set
    ({!Candidates.deal_periods}). *)

(** {2 Comm-homogeneous primitives}

    The building blocks of equations (1)–(2) for an interval [\[d, e\]]
    on processor [u] of a comm-homogeneous platform with common
    bandwidth [b]. All raise [Invalid_argument] on other platforms. *)

val din : t -> d:int -> float
(** [δ_{d-1} / b] — the interval's input transfer. *)

val dout : t -> e:int -> float
(** [δ_e / b] — the interval's output transfer. *)

val work_sum : t -> d:int -> e:int -> float
(** [Σ_{k=d..e} w_k] (valid on every platform kind). *)

val contrib : t -> d:int -> e:int -> u:int -> float
(** [δ_{d-1}/b + W(d,e)/s_u] — the interval's latency contribution
    (input + compute, output charged to the successor). *)

val cycle : t -> d:int -> e:int -> u:int -> float
(** [δ_{d-1}/b + W(d,e)/s_u + δ_e/b] — the interval's cycle-time,
    equation (1)'s per-interval term. Memoised per [(d, e, u)]. *)

val period_lower_bound : t -> float
(** The coarse relaxation used to seed threshold sweeps: every stage
    computed alone on the fastest processor, and the pipeline input /
    output transfers each paired with their adjacent stage (over the
    best I/O bandwidth on fully heterogeneous platforms). *)

(** {2 Candidate configurations (any platform kind)}

    The dispatch point behind the exact threshold searches
    (DESIGN.md §9 and §13): a mapped interval's cycle-time depends on its
    processor only through the triple (speed, boundary-in bandwidth,
    boundary-out bandwidth). {!candidate_configs} enumerates one
    representative per distinct triple — the speed representatives with
    [(b, b)] on a comm-homogeneous platform, and every
    (speed, link-or-I/O, link-or-I/O) combination on a fully
    heterogeneous one (at most [p³] configs, deduplicated) — and
    {!config_cycle} evaluates the cycle-time of an interval under a
    config with exactly the float association {!period} uses, so the
    candidate values are bit-identical to achievable objective values. *)

type config = {
  proc : int;  (** representative processor (smallest index per triple) *)
  b_in : float;  (** boundary input bandwidth (link or I/O) *)
  b_out : float;  (** boundary output bandwidth (link or I/O) *)
}

val candidate_configs : t -> config array
(** All distinct (speed, b_in, b_out) configurations, cached on the
    engine. Deterministic order: processors ascending, bandwidths
    sorted. On a fully heterogeneous platform this is a {e superset}
    family — not every config is realisable by some mapping — but
    threshold searches over it are still exact, because a monotone
    feasibility probe flips at an achievable (hence member) value. *)

val config_cycle : t -> d:int -> e:int -> config -> float
(** [δ_{d-1}/b_in + W(d,e)/s_proc + δ_e/b_out] — the cycle-time of
    interval [\[d, e\]] under a config, in the same association as
    {!cycle_time}. Comm-homogeneous configs route through the memoised
    {!cycle} table (bit-identical). *)

(** {2 Uniform-delta lattice ceiling}

    The one candidate query that still runs where {!Candidates.periods}
    would not fit in memory (DESIGN.md §11): {!Candidates.period_ceiling}
    and {!Threshold.search_lattice} read it past the array cap. *)

val lattice_ceiling : t -> float -> float option
(** [lattice_ceiling t v] — the smallest {!config_cycle} value [>= v]
    over every interval and {!candidate_configs}, or [None] when [v] is
    above them all: {!Candidates.ceiling} of {!Candidates.periods},
    bit for bit, without building the array. It requires an application
    whose message sizes [δ_0 … δ_n] are all equal (the caller checks;
    on other applications the answer is meaningless). One
    O(n · |configs|) two-pointer sweep that allocates nothing but the
    result. *)

(** {2 The terms of one interval (any platform kind)}

    The only formulas of equations (1)–(2)'s terms for an interval
    [\[d, e\]] on processor [u], whose neighbours are the processors of
    the adjacent intervals, or {!io} at the pipeline's ends.
    {!cycle_time} is [(input + compute) + output]; {!latency} starts at
    [0.], adds [input] then [compute] per interval, then the last
    [output]; {!period} folds [Float.max] from [neg_infinity]. Adding
    the terms in that association gives {!period} and {!latency} bit for
    bit. All raise [Invalid_argument] on an invalid interval or
    processor. *)

val io : int
(** The I/O port, as an interval's neighbour ([-1]). *)

val input : t -> d:int -> prev:int -> u:int -> float
(** [δ_{d-1}] sent from [prev] to [u]: over their link, or over [u]'s
    I/O port when [prev = io]; [δ_{d-1}/b] on a comm-homogeneous
    platform. *)

val compute : t -> d:int -> e:int -> u:int -> float
(** [W(d,e)/s_u] — the interval's computation time. *)

val output : t -> e:int -> u:int -> next:int -> float
(** [δ_e] sent from [u] to [next]: over their link, or over [u]'s I/O
    port when [next = io]; [δ_e/b] on a comm-homogeneous platform. *)

val balance : t -> first:int -> last:int -> u:int -> v:int -> int
(** The first cut [c] of [\[first, last − 1\]] where the {!compute} time
    of [\[first, c\]] on [u] reaches that of [\[c + 1, last\]] on [v], or
    [last] when none does: a bisection, as the first time never falls
    with [c] and the second never rises. *)

(** {2 Plain interval mappings (equations (1) and (2))}

    All functions raise [Invalid_argument] when the mapping does not
    match the application's stage count or references processors outside
    the platform. Any platform kind. *)

val cycle_time : t -> Mapping.t -> int -> float
(** Cycle-time of interval [j] (0-based). *)

val period : t -> Mapping.t -> float
(** Equation (1): the largest interval cycle-time. *)

val bottleneck : t -> Mapping.t -> int
(** Index of an interval achieving the period (smallest on ties). *)

val latency : t -> Mapping.t -> float
(** Equation (2). *)

type summary = {
  period : float;
  latency : float;
  intervals : int;  (** number of enrolled processors *)
}

val summary : t -> Mapping.t -> summary
(** Both objectives in one traversal. *)

(** {2 Deal-replication layer (comm-homogeneous only)} *)

val deal_period : t -> Deal_mapping.t -> float
(** Round-robin deal: each interval's worst replica cycle-time divided
    by its replication factor, maximised over intervals. *)

val deal_period_weighted : t -> Deal_mapping.t -> float
(** Rate-balanced deal: per interval, the inverse of the summed replica
    rates [Σ 1/cycle]. *)

val deal_latency : t -> Deal_mapping.t -> float
(** Worst replica's input + compute per interval, plus the final
    [δ_n/b]. *)

val deal_bottleneck : t -> Deal_mapping.t -> int
(** Interval whose period contribution (worst replica cycle over
    replication) is largest; smallest index on ties. *)

type deal_summary = {
  period : float;
  latency : float;
  processors : int;  (** total enrolled processors over all replicas *)
}

val deal_summary : t -> Deal_mapping.t -> deal_summary

(** {2 Reliability layer} *)

val interval_failure : Reliability.t -> Deal_mapping.t -> j:int -> float
(** Probability that every replica of interval [j] fails. *)

val failure : Reliability.t -> Deal_mapping.t -> float
(** Probability that at least one interval loses all its replicas
    (stage executions are independent). Raises [Invalid_argument] when
    the deal mapping enrolls processors outside the reliability
    vector. *)

type ft_summary = { period : float; latency : float; failure : float }

val ft_summary : t -> Reliability.t -> Deal_mapping.t -> ft_summary
(** The tri-criteria objective vector of a replicated mapping. *)
