(** The continuous churn controller.

    {!Ft_remap} answers one crash; this controller runs for the lifetime
    of a stream, reacting to every churn event under an online policy:

    {ul
    {- {e hysteresis} — never migrate without cause. A migration is
       {e forced} when the running mapping enrols a dead processor, and
       {e voluntary} when its live period exceeds
       [hysteresis × threshold]; a degraded-but-tolerable mapping
       (inside the hysteresis band) is left alone to avoid thrashing;}
    {- {e migration budget} — voluntary migrations stop once their
       cumulative volume ([Σ δ_{k-1}] over moved stages) would exceed
       the budget ({!action} [Deferred]); forced migrations always go
       through (and still drain the budget);}
    {- {e bounded retry with backoff} — when a re-solve degrades
       (fallback, or the new mapping misses the threshold), the
       controller asks to be woken [backoff] time units later, at most
       [max_retries] times per degradation episode; a threshold-meeting
       resolve re-arms the retry budget;}
    {- {e graceful degradation} — the resolver's fastest-survivor
       fallback keeps the stream alive when no threshold-meeting mapping
       exists; with no survivor at all the controller reports
       [Stalled] and retries, waiting for the platform to return.}}

    The controller is a pure fold over events: [on_event] consumes the
    live {!Churn.state} after the event and returns the {!reaction}; the
    caller (the streaming simulator, or a test) owns the clock and
    delivers retry wake-ups at [retry_at]. Warm or cold resolving is a
    config switch so campaigns can run the same policy against the cold
    oracle. *)

open Pipeline_model

type config = {
  heuristic : Pipeline_registry.info option;  (** default: H1 *)
  threshold : float;          (** the period bound being maintained *)
  hysteresis : float;         (** voluntary-migration trigger factor, >= 1 *)
  migration_budget : float;   (** cumulative voluntary volume; [infinity] = unbounded *)
  max_retries : int;          (** per degradation episode, >= 0 *)
  backoff : float;            (** retry delay, finite > 0 *)
  strategy : [ `Warm | `Cold ];
}

val default : threshold:float -> config
(** H1, hysteresis 1.1, unbounded budget, 3 retries, backoff
    [threshold × 10], warm. *)

type action =
  | Kept       (** no cause to migrate (within the hysteresis band) *)
  | Migrated   (** re-solved to a threshold-meeting mapping *)
  | Degraded   (** re-solved, but the best available mapping misses the
                   threshold (fallback or degraded solve) *)
  | Deferred   (** voluntary migration blocked by the exhausted budget *)
  | Stalled    (** no live processor; the incumbent is unrunnable *)

type reaction = {
  at : float;
  action : action;
  mode : Resolver.mode option;     (** [None] for [Kept]/[Deferred]/[Stalled] *)
  mapping : Mapping.t;             (** mapping in place after the event *)
  period : float;                  (** live period ([infinity] when stalled) *)
  latency : float;
  met_threshold : bool;
  migrated_stages : int;
  migration_volume : float;
  reaction_latency : float;        (** migration volume / IO bandwidth *)
  retry_at : float option;         (** wake the controller again at this time *)
}

type t
(** Mutable controller state: current mapping, remaining budget,
    remaining retries. *)

val create : ?config:config -> Instance.t -> initial:Mapping.t -> threshold:float -> t
(** [threshold] overrides [config.threshold] (so [default] composes).
    Raises [Invalid_argument] on a config out of range, an [initial]
    mapping that does not fit, or a platform that is not
    communication-homogeneous. *)

val mapping : t -> Mapping.t
val config : t -> config

val period : t -> Churn.state -> float
(** Live period of the current mapping on the churned platform —
    [infinity] when it enrols a dead processor. The streaming
    simulator's degradation metric reads this between events. *)

val on_event : t -> Churn.state -> at:float -> reaction
(** React to the platform being in [state] at time [at] (also the entry
    point for retry wake-ups: pass the current state again). *)
