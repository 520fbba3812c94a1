(** The E6 web-scale ladder (DESIGN.md §11).

    One deterministic instance per [(n, p)] size — E6 application
    ({!App_generator.e6}, uniform deltas) on a tiered
    {!Platform_generator.web_scale} platform — solved twice:

    {ul
    {- {!Chains.Nicol} on the stage weights gives the exact
       chains-to-chains bottleneck and, through the monotone cycle map,
       the exact minimum period of the all-fastest relaxation
       ({!exact_relaxed_min_period});}
    {- the H1 splitting heuristic ({!Pipeline_core.Sp_mono_p}) under a
       deterministic threshold ladder of multiples of the relaxation
       optimum.}}

    The section is sequential and moves no {!Obs} counter, so every
    paper-sized golden metric stays byte-identical at any [--jobs]. The
    CSV contains only deterministic values (objectives and interval
    counts); wall-clocks come from the caller's [clock] and appear only
    in {!render}. *)

type row = {
  n : int;
  p : int;
  nicol_bottleneck : float;
  exact_period : float;
  exact_intervals : int;  (** intervals of Nicol's witness *)
  h1_factor : float;
      (** threshold multiplier over [exact_period]; [0.] marks the
          single-processor fallback *)
  h1_period : float;
  h1_latency : float;
  h1_intervals : int;
}

type timings = {
  build_s : float;  (** cost-engine construction *)
  exact_s : float;  (** {!exact_relaxed_min_period}, Nicol included *)
  h1_s : float;
}

type measurement = { row : row; timings : timings }

val ladder : [ `Smoke | `Quick | `Full ] -> (int * int) list
(** The [(n, p)] sizes per bench mode; [`Full] tops out at
    [50 000 × 1 000]. *)

val instance : seed:int -> n:int -> p:int -> Pipeline_model.Instance.t
(** The deterministic E6 instance of one ladder rung (stream derived
    from [(seed, "scaling-e6", n, p)], Workload-style). *)

val exact_relaxed_min_period :
  Pipeline_model.Cost.t -> p:int -> float * int * float
(** [(period, intervals, bottleneck)] — the exact minimum period over
    interval mappings onto [p] processors at the platform's fastest
    speed, the interval count of the witness that attains it, and the
    chains bottleneck of that witness. One {!Chains.Nicol.solve} on the
    works: with uniform deltas the cycle-time is the same
    non-decreasing map of the work sum for every interval, so the
    relaxation's optimum is the largest fastest-speed
    {!Pipeline_model.Cost.cycle} over Nicol's witness, bit for bit.
    Requires uniform deltas (E6). *)

val run :
  ?clock:(unit -> float) -> ?seed:int -> (int * int) list -> measurement list
(** Solve every ladder rung in sequence. [clock] defaults to a constant
    (timings all zero) so library users stay Unix-free; the bench passes
    a real clock. [seed] defaults to 2007. *)

val to_csv : measurement list -> string
(** Deterministic rows only — golden-diffable at any [--jobs]. *)

val write : dir:string -> measurement list -> string list
(** Write [scaling-e6.csv] under [dir]; returns the paths written. *)

val render : measurement list -> string
(** Table with wall-clock columns appended (stdout / EXPERIMENTS.md
    use only). *)

(** {1 The exact rung}

    {!Pipeline_optimal.Branch_bound} on a paper-style E2 application over
    a comm-homogeneous platform, at sizes past the subset-DP's [p ≤ 16]
    ceiling — the solver the deterministic task-tree rewrite parallelises
    (DESIGN.md §14). The CSV rows (objective, node count, proven flag)
    are bit-identical at any [--jobs]: the synchronous wave schedule — not
    domain timing — decides every pruning bound. *)

type bnb_row = {
  bnb_n : int;
  bnb_p : int;
  bnb_period : float;
  bnb_latency : float;
  bnb_nodes : int;  (** deterministic: fixed by the wave schedule *)
  bnb_proven : bool;  (** false when the node budget ran out *)
}

type bnb_measurement = { bnb_row : bnb_row; bnb_s : float }

val bnb_ladder : [ `Smoke | `Quick | `Full ] -> (int * int) list
val bnb_budget : [ `Smoke | `Quick | `Full ] -> int

val bnb_instance : seed:int -> n:int -> p:int -> Pipeline_model.Instance.t
(** Stream derived from [(seed, "scaling-bnb", n, p)], Workload-style. *)

val bnb_run :
  ?clock:(unit -> float) ->
  ?budget:int ->
  ?seed:int ->
  (int * int) list ->
  bnb_measurement list

val bnb_to_csv : bnb_measurement list -> string
val bnb_write : dir:string -> bnb_measurement list -> string list
(** Write [scaling-bnb.csv] under [dir]. *)

val bnb_render : bnb_measurement list -> string
