(** The streaming driver: a trace of arrivals, a trace of churn, one
    controller — end to end.

    The run is a deterministic fold over the merged timeline of churn
    events and controller retry wake-ups. Each event updates the live
    {!Churn.state} and asks the {!Controller} for a reaction; whenever
    the mapping actually changes, the stream is cut into a new
    {e segment}. Each segment is then executed by one
    {!Pipeline_sim.Workload_sim.run} under drain-and-switch semantics:

    {ul
    {- data sets belong to the segment in which they {e arrive}; sets
       admitted to the old mapping drain through it while the new one
       spins up (no in-flight hand-off between mappings);}
    {- sets arriving during the migration window wait for it: their
       arrival is clamped to the segment's effective start (open time +
       reaction latency);}
    {- within a segment, the churned platform is compiled into the
       simulator's own vocabulary — down-windows of enrolled processors
       become crash/recover events, composed speed factors become
       slowdowns — so segment execution inherits the kill /
       back-pressure / retry semantics of {!Pipeline_sim.Workload_sim}
       verbatim;}
    {- with an {e empty churn trace} there is a single segment whose
       run carries no crash and no slowdown, and whose statistics are
       returned {e verbatim}: the streaming run is bit-for-bit the
       static {!Pipeline_sim.Workload_sim} run of the same trace — the
       degenerate case the qcheck suite pins.}}

    Determinism: the controller fold is sequential, segment seeds
    derive from the run seed and the segment index, and every float
    reduction follows segment order — same config, same stats, at any
    [--jobs]. *)

open Pipeline_model

type config = {
  controller : Controller.config;
  arrivals : float array;       (** absolute instants, sorted, >= 0 *)
  churn : Churn.event list;
  noise : Pipeline_sim.Workload_sim.noise;
  retry : Pipeline_sim.Workload_sim.retry;  (** within-segment re-execution *)
  seed : int;
}

val default_config : threshold:float -> config
(** {!Controller.default}, 200 saturated arrivals (all at time 0), no
    churn, no noise, {!Pipeline_sim.Workload_sim.no_retry}, seed 0. *)

type stats = {
  workload : Pipeline_sim.Workload_sim.stats;
      (** merged over segments; [makespan] is absolute (run origin).
          Single-segment runs return the segment's statistics verbatim;
          multi-segment latency statistics are recomputed over the
          concatenated per-set latencies and [steady_period] is the
          completion-weighted mean over segments that completed at
          least two sets. [offered] counts the arrivals in the trace;
          [dropped], [killed] and [retries] are summed over segments. *)
  lost : int;           (** offered minus completed (drops + stalls) *)
  segments : int;       (** mapping epochs (>= 1) *)
  reactions : Controller.reaction list;  (** chronological *)
  migrations : int;     (** reactions that moved at least one stage *)
  migrated_stages : int;
  migration_volume : float;
  reaction_mean : float;  (** mean reaction latency over migrations *)
  reaction_max : float;
  degradation : float;
      (** time-weighted mean of (live period / threshold) from run
          origin to the later of the absolute makespan and the last
          event — 1.0 is a stream that never left its threshold;
          [infinity] if the platform ever went completely dark. *)
  final_mapping : Mapping.t;
}

val run : ?config:config -> Instance.t -> initial:Mapping.t -> stats
(** Raises [Invalid_argument] on everything {!Pipeline_sim.Workload_sim}
    rejects for the embedded workload configuration, plus: an empty or
    unsorted arrival trace, a churn trace {!Churn.validate} rejects,
    and a controller configuration {!Controller.create} rejects. *)
