(** Operational simulator of a mapped pipeline.

    Executes a mapping on a simulated platform, dataset by dataset, and
    produces the full operation {!Trace}. Two contention models:

    {ul
    {- {!One_port_no_overlap} — the paper's model: each processor is a
       single resource executing, per dataset, {e receive, compute, send}
       strictly in sequence; a transfer is a rendezvous engaging the
       sender's and the receiver's (single) port for [δ/b] time. The
       steady-state inter-completion time equals equation (1) and the
       first dataset's response time equals equation (2) — the property
       checked by {!Validate} and the test suite.}
    {- {!Multi_port_overlap} — an ablation: independent input port, CPU
       and output port per processor, so communication overlaps
       computation; the steady-state period drops towards
       [max(in, comp, out)] per interval. Quantifies how conservative the
       paper's one-port/no-overlap assumption is.}}

    Transfers of size 0 are executed as zero-duration rendezvous (they
    still synchronise sender and receiver). Works on any platform class:
    boundary bandwidths follow {!Pipeline_model.Cost}'s conventions. *)

open Pipeline_model

type mode =
  | One_port_no_overlap
  | Multi_port_overlap

val run : ?mode:mode -> Instance.t -> Mapping.t -> datasets:int -> Trace.t
(** [run inst mapping ~datasets] simulates the processing of [datasets]
    consecutive data sets (all available at time 0; the source and sink
    are never contended). Default mode: {!One_port_no_overlap}.
    Raises [Invalid_argument] when [datasets < 1] or the mapping does not
    fit the instance. *)
