(** The daemon's warm-engine cache: a platform-fingerprint-keyed LRU of
    representative instances.

    Parsing a request builds fresh [Application.t]/[Platform.t] values,
    and {!Pipeline_model.Cost.get}'s per-domain engine LRU keys on
    {e physical} equality — so without help, two identical requests
    would each build their own cost engine. This cache is the
    canonicalisation step: it maps the request's instance onto the
    {e representative} instance first seen with that platform
    fingerprint (and, nested under it, that application fingerprint), so
    repeated queries against the same cluster hand the solvers
    pointer-equal values, and [Cost.get] hits while the engine is still
    among its 8. The cache holds no engine and enumerates no candidate
    set: [Cost.get]'s LRU is the one place engines live, and the
    requests that read candidate periods ([/pareto], exact [/solve])
    build them on first use through the engine.

    Fingerprints are injective textual encodings in the style of
    {!Pipeline_stream.Churn.fingerprint} (hex-float [%h] rendering, so
    no two distinct platforms collide). Eviction is two-level LRU: 64
    platform entries, each holding at most 16 applications; the least
    recently used entry drops first. Interpretation choices (entry
    sizing, the interplay with [Cost.get]'s 8-engine domain LRU) are
    DESIGN.md §12.

    Lookups mutate the LRU order: the cache is meant to be used from the
    server's single request thread (requests are serialised — the
    determinism contract of doc/serving.mld) and is {e not}
    thread-safe. *)

open Pipeline_model

type t

val create : unit -> t
(** An empty cache: 64 platform entries, 16 applications each. *)

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
  platform_hit : bool;  (** platform fingerprint was cached *)
  app_hit : bool;  (** application fingerprint was cached under it *)
}

val canonical : t -> Instance.t -> lookup
(** Canonicalise one request instance. On a miss the request's own
    application becomes the representative, paired with the entry's
    platform (the request's own on a platform miss); nothing else is
    built. *)

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
