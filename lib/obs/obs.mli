(** Deterministic observability: counters, gauges and spans.

    The library sits below every other [pipeline_workflows] library and
    provides two independent facilities, both off by default and both
    near-free when off (one atomic flag read per call site):

    - {e metrics} — named monotone counters and maximum gauges whose
      {e values} are part of the repository's determinism contract:
      instrumented code only ever merges them with commutative,
      associative operations (integer sums and maxima), so a metrics
      dump is bit-identical at any [--jobs N]. Wall-clock never enters a
      metric.
    - {e tracing} — nestable timed spans collected per domain and
      exported as Chrome [trace_event] JSON (load the file in
      [chrome://tracing] or Perfetto). Spans measure wall-clock and are
      therefore {e exempt} from the determinism contract; they share
      nothing with the metrics side.

    There is no context to thread: the handle is ambient and
    domain-safe. Counters live in a process-wide registry (create them
    once, at module initialisation); span buffers are domain-local and
    merged at export time. The null sink is the default: with both
    facilities disabled every instrumented call collapses to a flag
    check, which the bench's timings section verifies keeps the
    exhaustive solvers within noise of the uninstrumented baseline. *)

(** {1 Switches} *)

val set_metrics : bool -> unit
(** Turn the metrics side on or off (off initially; only executables and
    tests ever enable it). Counters stop accumulating the instant the
    flag drops. *)

val metrics_enabled : unit -> bool
(** Current state of the metrics switch. *)

val set_tracing : bool -> unit
(** Turn span collection on or off (off initially). Enabling (re)stamps
    the trace epoch: span timestamps are microseconds since the last
    [set_tracing true]. *)

val reset : unit -> unit
(** Zero every registered counter and gauge and drop every recorded
    span. Registrations survive (a {!Counter.t} stays valid). *)

(** {1 Counters and gauges}

    Values are plain [int]s. Increments may come from any domain
    concurrently; sums and maxima are order-independent, which is
    exactly why these are the only merge operations offered. *)

module Counter : sig
  type t

  val make : ?doc:string -> string -> t
  (** [make name] registers (or retrieves) the monotone counter [name].
      Call it at module-initialisation time, not on a hot path; names
      are process-global, and re-registering an existing name returns
      the same counter ([doc] of the first registration wins). *)

  val incr : t -> unit
  (** Add 1. A no-op (one flag read) while metrics are off. *)

  val add : t -> int -> unit
  (** Add [n >= 0]. A no-op (one flag read) while metrics are off.
      Instrumented hot loops count locally and [add] once per batch, so
      the enabled cost is one atomic per batch, not per event. *)

  val value : t -> int
  (** Current value. *)
end

module Gauge : sig
  type t

  val make : ?doc:string -> string -> t
  (** [make name] registers (or retrieves) the maximum gauge [name] —
      same registry and rules as {!Counter.make}. *)

  val observe : t -> int -> unit
  (** Raise the gauge to [v] if [v] exceeds the current maximum. A
      no-op (one flag read) while metrics are off. *)

  val value : t -> int
  (** Largest value observed since the last {!reset} (0 if none). *)
end

(** {1 Reading the metrics} *)

val metrics : unit -> (string * int) list
(** Every registered counter and gauge, sorted by name — the canonical
    deterministic dump the bit-identity tests compare. *)

val summary_table : unit -> string
(** Human sink: the metrics rendered as an aligned
    [name value description] table (printed by [bench --metrics]). *)

val metrics_csv : unit -> string
(** CSV sink ([metric,value] rows, name-sorted) — written into the
    bench's artefact directory so the CI determinism gate diffs counter
    values along with every other artefact. *)

val exposition : unit -> string
(** Prometheus text-format sink (exposition format 0.0.4), served by the
    daemon's [/metrics] endpoint: per metric a [# HELP] line (when the
    registration carried a doc), a [# TYPE] line (counters are
    [counter], maximum gauges are [gauge]) and a [name value] sample,
    name-sorted. Names are mangled onto the format's
    [\[a-zA-Z0-9_\]] alphabet (every other byte becomes ['_']). *)

(** {1 Spans}

    A span is a named, timed region of code. Spans nest (the innermost
    ends first) and are recorded on the calling domain's buffer under
    the ambient {e track} — worker [w] of {!Pipeline_util.Pool.map}
    runs its chunk under track [w], so the exported trace shows one
    timeline row per pool worker. *)

val span : string -> (unit -> 'a) -> 'a
(** [span name f] runs [f ()]; while tracing is on, the call is
    recorded as a complete event from entry to return (exceptions
    still record the span before propagating). While tracing is off
    this is [f ()] after one flag read. *)

val with_track : int -> (unit -> 'a) -> 'a
(** [with_track w f] runs [f ()] with spans attributed to track [w]
    (default track: 0). {!Pipeline_util.Pool} wraps each worker chunk
    in this; other callers rarely need it. *)

val write_trace : string -> unit
(** Export every span recorded since tracing was last enabled as a
    Chrome [trace_event] JSON array (complete ["ph":"X"] events plus
    one ["thread_name"] metadata record per track), sorted by start
    time. The file loads directly in [chrome://tracing] / Perfetto. *)
