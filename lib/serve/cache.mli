(** The daemon's warm-engine cache: a platform-fingerprint-keyed LRU.

    Parsing a request builds fresh [Application.t]/[Platform.t] values,
    and {!Pipeline_model.Cost.get}'s per-domain engine LRU keys on
    {e physical} equality — so without help, two identical requests
    would each pay the cold engine build and the candidate-set
    enumeration. This cache is the canonicalisation step: it maps the
    request's instance onto the {e representative} instance first seen
    with that platform fingerprint (and, nested under it, that
    application fingerprint), so repeated queries against the same
    cluster hand the solvers pointer-equal values and hit every warm
    table — the cost engine, its memoised cycle-time entries, and the
    candidate-period arrays ({!Pipeline_model.Candidates.periods},
    enumerated once per entry).

    Fingerprints are injective textual encodings in the style of
    {!Pipeline_stream.Churn.fingerprint} (hex-float [%h] rendering, so
    no two distinct platforms collide). Eviction is two-level LRU:
    [platforms] platform entries, each holding at most
    [apps_per_platform] applications; the least recently used entry
    drops first. Interpretation choices (entry sizing, the interplay
    with [Cost.get]'s 8-engine domain LRU) are DESIGN.md §12.

    Lookups mutate the LRU order: the cache is meant to be used from the
    server's single request thread (requests are serialised — the
    determinism contract of doc/serving.mld) and is {e not}
    thread-safe. *)

open Pipeline_model

type t

val create : ?platforms:int -> ?apps_per_platform:int -> unit -> t
(** Defaults: 64 platform entries, 16 applications each. Raises
    [Invalid_argument] when either cap is < 1. *)

val platform_fingerprint : Platform.t -> string
(** Injective encoding of (processor count, speeds, bandwidths): a
    comm-homogeneous platform encodes its single bandwidth, any other
    platform its full I/O vector and link triangle. *)

val app_fingerprint : Application.t -> string
(** Injective encoding of (works, deltas). *)

type lookup = {
  instance : Instance.t;
      (** the representative instance — solvers should use this, not the
          request's parse *)
  engine : Cost.t;
      (** the warm engine (also resident in [Cost.get]'s domain LRU) *)
  platform_hit : bool;  (** platform fingerprint was cached *)
  app_hit : bool;  (** application fingerprint was cached under it *)
}

val canonical : t -> Instance.t -> lookup
(** Canonicalise one request instance, warming the cache on a miss: a
    fresh entry builds the engine and enumerates the candidate-period
    set eagerly — on comm-homogeneous platforms up to the
    candidate-priming stage cap, on fully heterogeneous ones up to a
    materialised-triple cap (the het family is O(n² · |configs|) with up
    to p³ configurations, DESIGN.md §13) — so the cold cost is paid
    here, once, rather than inside every subsequent solve. *)

type stats = {
  platform_hits : int;
  platform_misses : int;
  app_hits : int;
  app_misses : int;  (** platform hit, application miss *)
  evictions : int;  (** platform entries dropped by LRU pressure *)
}

val stats : t -> stats
(** Tallies since {!create} (plain per-cache ints, independent of the
    [Obs] switch; the server also mirrors them into [serve.cache.*]
    counters for [/metrics]). *)
