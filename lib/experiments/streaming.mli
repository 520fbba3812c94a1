(** Streaming churn campaign (DESIGN.md §10): trace-driven arrivals,
    platform churn, and the continuous controller — warm-started
    incremental re-solving measured against the cold re-solve oracle.

    For each instance of a batch the campaign maps the pipeline with H1
    at 0.6 × the single-processor period (the fault campaign's
    convention), then for each workload shape (bursty / diurnal /
    heavy-tailed, mean arrival rate 1/threshold):

    {ul
    {- draws an arrival trace and a churn script from a per-(instance,
       shape) RNG stream — two crashes (enrolled processors first)
       with recovery after 10 thresholds, plus one slowdown to
       40–80 % speed;}
    {- runs the {e same} scenario twice through
       [Pipeline_stream.Stream_sim]: once with the warm incremental
       resolver, once with the cold oracle that rebuilds and re-solves
       from scratch at every event;}
    {- records completion rate, migration counts / stage counts /
       volume, reaction latency (mean and max), time-weighted
       degradation, segment count, and the solver work actually spent —
       full heuristic solves vs cheap repairs.}}

    The scenario is identical under both strategies, so any difference
    in the solver-work columns is attributable to warm-starting alone;
    the quality columns show what (if anything) the shortcut costs.
    Everything derives from the setup seed, pairs fan out over
    {!Pipeline_util.Pool} in index order: bit-identical at any
    [--jobs]. *)

type row = {
  shape : string;            (** bursty | diurnal | heavy-tailed *)
  strategy : string;         (** warm | cold *)
  completion : float;        (** mean completed / offered *)
  migrations : float;        (** mean stage-moving reactions per run *)
  migrated_stages : float;
  migration_volume : float;
  reaction_mean : float;     (** mean of per-run mean reaction latency *)
  reaction_max : float;      (** mean of per-run max reaction latency *)
  degradation : float;       (** mean time-weighted period / threshold *)
  segments : float;          (** mean mapping epochs per run *)
  full_solves : float;       (** mean full heuristic solves per run *)
  repairs : float;           (** mean dead-interval repairs per run *)
}

type campaign = {
  setup : Config.setup;
  instances : int;   (** instances actually mapped (H1 successes) *)
  datasets : int;    (** arrivals offered per run *)
  rows : row list;   (** shape-major, warm before cold *)
}

val run : ?datasets:int -> Config.setup -> campaign
(** Default: 150 data sets. *)

val render : campaign -> string
val to_csv : campaign -> string

val write : dir:string -> campaign -> string list
(** Write [<dir>/streaming-<label>.csv]; returns the paths. *)
