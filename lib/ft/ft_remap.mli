(** Online remapping after processor failures.

    When processors crash mid-campaign, the controller re-solves the
    mapping problem on the {e surviving} sub-platform with H1
    ({!Pipeline_core.Sp_mono_p}) and reports the migration cost of
    switching, plus the (possibly degraded) period and latency of the
    new mapping:

    {ol
    {- survivors keep their original (platform-wide, 0-based) indices —
       the returned mapping is directly valid on the original platform
       and never enrols a failed processor;}
    {- if the running mapping enrols no failed processor and still meets
       the threshold, it is kept as-is — an online controller never
       migrates without cause;}
    {- otherwise H1 runs on the surviving sub-platform against the
       caller's period threshold;}
    {- when H1 cannot meet the threshold on the degraded platform, the
       controller falls back to the fastest surviving processor
       (Lemma 1's shape) and reports [met_threshold = false] rather than
       giving up — an online system needs {e some} mapping;}
    {- migration cost counts the stages whose processor changed and
       charges each moved stage its input payload [δ_{k-1}] (the data
       that must be re-staged on the new processor).}}

    Restricted to communication-homogeneous platforms, like the registry
    heuristics. *)

open Pipeline_model

type outcome = {
  mapping : Mapping.t;      (** on original indices; survivors only *)
  period : float;           (** equation (1) on the original platform *)
  latency : float;          (** equation (2) on the original platform *)
  met_threshold : bool;     (** period threshold met *)
  fallback : bool;          (** H1 failed; fastest-survivor
                                single-processor mapping used instead *)
  migrated_stages : int;    (** stages whose processor changed *)
  migration_volume : float; (** [Σ δ_{k-1}] over migrated stages *)
}

val remap :
  Instance.t ->
  before:Mapping.t ->
  failed:int list ->
  threshold:float ->
  outcome option
(** [None] exactly when no processor survives. Raises [Invalid_argument]
    when [before] does not fit the instance, a failed index is out of
    range, the threshold is not finite and positive, or the platform is
    not communication-homogeneous. [failed] may list duplicates and
    processors unused by [before]; a crash-free call ([failed = []])
    with a threshold [before] already meets typically returns a
    zero-migration outcome. *)
