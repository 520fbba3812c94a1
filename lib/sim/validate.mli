(** Cross-check of the analytic cost model against the simulator.

    The paper evaluates mappings analytically (equations (1)–(2)); this
    module executes the same mappings operationally and reports both
    views side by side. Under {!Runner.One_port_no_overlap} the two must
    agree: the steady-state inter-completion time converges to the
    analytic period, and the first dataset — which never waits — achieves
    exactly the analytic latency. *)

open Pipeline_model

type report = {
  analytic_period : float;
  analytic_latency : float;
  simulated_period : float;       (** steady-state slope of completions *)
  first_dataset_latency : float;  (** simulated response time of dataset 0 *)
  max_dataset_latency : float;    (** worst simulated response time *)
  period_rel_error : float;       (** |sim - analytic| / analytic *)
  latency_rel_error : float;      (** on the first dataset *)
}

val check : ?datasets:int -> Instance.t -> Mapping.t -> report
(** Simulate [datasets] data sets (default 200) in the paper's model and
    compare with {!Pipeline_model.Cost}. *)

val agrees : ?tolerance:float -> report -> bool
(** Both relative errors below [tolerance] (default 1e-6). *)

val pp : Format.formatter -> report -> unit
