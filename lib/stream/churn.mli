(** Platform churn: timed crash / recover / join / speed-change events.

    A churn trace is the platform-side counterpart of an arrival trace:
    the sequence of events a living cluster throws at a running mapping.
    The module provides

    {ul
    {- the event algebra and its per-processor sequencing rules
       ({!validate});}
    {- a CSV round-trip matching the arrival-trace conventions;}
    {- the {e live-platform state} — which processors are up and at what
       composed speed factor — folded over events ({!initial},
       {!apply});}
    {- compilers into the simulator's vocabulary ({!crashes},
       {!slowdowns}) so an {e uncontrolled} run of a churn trace is one
       {!Pipeline_sim.Workload_sim.run} — the degenerate case the
       bit-identity tests pin: an empty trace compiles to no crashes and
       no slowdowns, i.e. a crash-free run.}}

    Sequencing rules (checked by {!validate}, per processor, in time
    order): a processor with a [Join] event is absent until then and the
    [Join] must be its first event; [Crash] requires the processor up,
    [Recover] requires it down from a crash; [Speed] composes at any
    time (a factor set while down applies on return); two events on one
    processor at the same instant are rejected. *)

type kind =
  | Crash            (** the processor goes down, losing in-flight work *)
  | Recover          (** it comes back, at its pre-crash speed factor *)
  | Join             (** first appearance: absent from time 0 until now *)
  | Speed of float   (** speed multiplier from now on; composes *)

type event = { at : float; proc : int; kind : kind }

val validate : p:int -> event list -> unit
(** Raises [Invalid_argument] on: a non-finite or negative time (a
    [Join] additionally requires [at > 0]); a processor outside
    [\[0, p)]; a [Speed] factor that is not finite and [> 0]; or a
    sequencing violation as documented above. *)

val sorted : event list -> event list
(** Stable sort by [(at, proc)] — the order {!validate} and the
    streaming driver process events in. *)

(** {2 CSV round-trip}

    Format: [at,proc,event\[,factor\]] with [event] one of [crash],
    [recover], [join], [speed] (case-insensitive); only [speed] rows
    carry the fourth column. Optional header, blank lines ignored.
    Parse errors carry the 1-based line number. An empty file is a
    valid empty trace (no churn). *)

val of_csv_string : string -> (event list, string) result
val load : string -> (event list, string) result
val to_csv : event list -> string

(** {2 Live-platform state} *)

type state
(** Immutable snapshot: per-processor liveness and composed speed
    factor. *)

val initial : p:int -> event list -> state
(** Everyone up at factor 1, except processors with a [Join] event in
    the trace, which start absent. *)

val apply : state -> event -> state
(** Fold one event (no sequencing re-check: {!validate} first). *)

val alive : state -> int -> bool
val factor : state -> int -> float
val survivors : state -> int array
(** Indices of live processors, ascending. *)

val fingerprint : state -> string
(** Injective encoding of (liveness, factor) per processor — the
    resolver's cache key. *)

(** {2 Compilation to the simulator's vocabulary} *)

val crashes : p:int -> event list -> Pipeline_sim.Workload_sim.crash list
(** Each [Crash] paired with its next [Recover] (or permanent); each
    [Join] at [t] becomes a crash window [\[0, t)]. Validates first. *)

val slowdowns : event list -> Pipeline_sim.Workload_sim.slowdown list
(** The [Speed] events, verbatim. *)
