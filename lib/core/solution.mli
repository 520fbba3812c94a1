(** Result of a bi-criteria mapping heuristic: the mapping together with
    its two objective values. *)

open Pipeline_model

type t = {
  mapping : Mapping.t;
  period : float;   (** equation (1) *)
  latency : float;  (** equation (2) *)
}

val of_mapping : Instance.t -> Mapping.t -> t
(** Evaluate both objectives with {!Pipeline_model.Metrics}. *)

val respects_period : t -> float -> bool
(** [respects_period s p] with a relative tolerance of 1e-9, so a solution
    sitting exactly on the threshold is not rejected by rounding noise. *)

val respects_latency : t -> float -> bool

val front : t list -> t list
(** The Pareto front of a point set, by increasing period and strictly
    decreasing latency. Values within the {!Pipeline_util.Tol.meets}
    slack of each other tie, the rule the threshold solvers apply to a
    cap: sweeping by period, a point whose latency does not undercut the
    last kept one beyond the slack is dropped (the smaller period wins),
    and one that does but whose period ties the last kept one's replaces
    it (the smaller latency wins). The sort is stable, so among exact
    ties the first point of the input is the witness. *)

val pp : Format.formatter -> t -> unit
