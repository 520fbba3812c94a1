(** The daemon's request surface: routing, validation and response
    construction, independent of any socket.

    [handle] is a pure-ish function from an {!Http.request} to a
    complete (status, content type, body) triple — "pure-ish" because it
    mutates the warm-engine {!Cache} and the [serve.*] observability
    counters, neither of which feeds back into a response body. Identical
    requests therefore produce byte-identical responses, whatever the
    cache state and whatever [--jobs] width the pool runs at (the
    contract doc/serving.mld spells out; the qcheck suite enforces the
    serve-vs-library half of it).

    Endpoints, request/response schemas and the error model are
    documented in doc/serving.mld. Validation failures are one-line
    [{"error": "..."}] bodies with status 400, carrying the {e same
    wording} as the CLI's exit-2 diagnostics: both surfaces resolve
    heuristics through {!Pipeline_registry.resolve} and share their
    option-consistency messages. *)

type t
(** Protocol state: the warm-engine cache plus the counter mirror.
    Not thread-safe — the server drives it from its single request
    thread. *)

val create : unit -> t
(** A fresh protocol state with an empty {!Cache}. The [serve.*]
    observability counters register on the first [create] — not at
    module initialisation — so linking this library does not change the
    metrics dump of programs that never serve (the bench's
    [metrics.csv] golden). *)

val handle : t -> Http.request -> int * string * string
(** [handle t req] is [(status, content_type, body)]. Never raises:
    rejections become 400/404/405 one-liners, unexpected exceptions a
    500 with the exception text. *)

val cache_stats : t -> Cache.stats
(** The warm-engine cache tallies (also mirrored into [serve.cache.*]
    counters after every request). *)
