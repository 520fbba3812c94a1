(** Local-search polishing of interval mappings.

    The paper's heuristics are constructive and greedy; a cheap
    post-optimisation pass often recovers part of the gap to the optimum.
    The neighbourhood contains three move families:

    {ul
    {- {e shift}: move an interval boundary one stage left or right;}
    {- {e swap}: exchange the processors of two enrolled intervals;}
    {- {e swap-in}: replace an enrolled processor by an unused one;}
    {- {e merge}: fuse two adjacent intervals onto one of their two
       processors (freeing the other).}}

    {!improve} runs steepest-descent hill climbing under a lexicographic
    objective chosen by the caller (period first or latency first) with
    an optional feasibility constraint; it never worsens the objective
    and terminates because every accepted move strictly improves it.
    Communication-homogeneous and fully heterogeneous platforms are both
    supported (moves are scored with the full cost model). *)

open Pipeline_model
open Pipeline_core

type objective =
  | Period_then_latency   (** minimise period; break ties by latency *)
  | Latency_then_period

val neighbours : Instance.t -> Mapping.t -> Mapping.t list
(** All mappings one move away (valid by construction). *)

val improve :
  ?objective:objective ->
  ?feasible:(Solution.t -> bool) ->
  Instance.t ->
  Solution.t ->
  Solution.t
(** Steepest descent from a solution, for at most 1000 moves. [feasible]
    (default: accept all) filters candidate moves — e.g. keep
    [respects_period] while polishing latency. The result is never worse
    than the input under the chosen objective and satisfies [feasible]
    whenever the input does. *)
