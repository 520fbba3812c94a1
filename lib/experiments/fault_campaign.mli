(** Fault-injection campaign (beyond the paper): how do mapped pipelines
    degrade under processor crashes, and how well does online remapping
    recover?

    For each instance of a batch the campaign maps the pipeline with H1
    at a mid-range period threshold (0.6 × the single-processor period,
    like the robustness experiment), then for each crash count [c]:

    {ul
    {- draws [c] distinct crashed processors — enrolled processors
       first, so the faults actually hit the pipeline — and one crash
       instant each, uniform over the first half of the nominal
       execution window;}
    {- measures the {e survival rate} (fraction of data sets completed,
       {!Pipeline_sim.Workload_sim}) with permanent crashes, and again with
       recovery (outage of 10 analytic periods, 3 retries, backoff of
       one period);}
    {- asks the remapping controller ([Ft_remap]) for a replacement
       mapping on the survivors at a degraded threshold (1.2 × the
       original), recording the success rate, the degraded-period ratio
       (new analytic period / original), and the migration load
       (migrated stages / n).}}

    Everything derives from the setup seed — per (instance, crash
    count) RNG streams — so a campaign is reproducible bit-for-bit. *)

type point = {
  crashes : int;                 (** injected crash count *)
  survival : float;              (** mean, permanent crashes, no retry *)
  survival_recovery : float;     (** mean, with recovery and retries *)
  remap_success : float;         (** fraction meeting the degraded bound *)
  degraded_period : float;       (** mean new period / original period *)
  migrated_fraction : float;     (** mean migrated stages / n *)
}

type campaign = {
  setup : Config.setup;
  instances : int;   (** instances actually mapped (H1 successes) *)
  datasets : int;    (** data sets offered per simulation *)
  points : point list;  (** one per crash count, ascending *)
}

val run :
  ?crash_counts:int list -> ?datasets:int -> Config.setup -> campaign
(** Defaults: crash counts [\[0; 1; 2; 3\]], 150 data sets. Crash counts
    are clamped to [p - 1] so at least one processor survives. *)

val render : campaign -> string
(** Aligned text table for the terminal. *)

val to_csv : campaign -> string

val write : dir:string -> campaign -> string list
(** Write [<dir>/fault-campaign-<label>.csv]; returns the paths. *)
