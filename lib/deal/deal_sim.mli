(** Operational simulation of deal mappings (one-port, no overlap,
    strict round-robin dealing).

    Extends the model of {!Pipeline_sim.Runner}: data set [t] is handled,
    in interval [j], by replica [t mod r_j]; the boundary transfer is a
    rendezvous between the upstream replica that produced the data set
    and the downstream replica that will consume it. Used to check the
    analytic round-robin period of {!Pipeline_model.Cost.deal_period} against an actual
    execution. *)

open Pipeline_model

type result = {
  output_completions : float array; (** per data set *)
  steady_period : float;            (** slope over the second half *)
  first_latency : float;
  max_latency : float;
}

val run : Instance.t -> Deal_mapping.t -> datasets:int -> result
(** Raises [Invalid_argument] when [datasets < 1] or the mapping does not
    fit the instance (communication-homogeneous platforms only, as in
    {!Pipeline_model.Cost.deal_period}). *)
