(** Interval mappings (paper §2, "Bi-criteria mapping problem").

    A mapping partitions the stages [\[1..n\]] into [m ≤ p] consecutive
    intervals and assigns interval [I_j] to a dedicated processor
    [alloc j]. Processors are enrolled at most once (a stage is mapped
    onto a single processor, and a processor executes a single interval).

    Values are immutable; the smart constructors enforce the structural
    invariants, so any [Mapping.t] in flight is well-formed with respect
    to its [n]. Whether all processor indices exist on a given platform
    is checked by {!valid_on}. *)

type t

val make : n:int -> (Interval.t * int) list -> t
(** [make ~n assignment] builds a mapping of a pipeline with [n] stages;
    [assignment] lists [(interval, processor)] pairs in pipeline order.
    Raises [Invalid_argument] if the intervals are not a partition of
    [\[1..n\]] in order, or if a processor index is negative or repeated. *)

val single : n:int -> proc:int -> t
(** The whole pipeline on one processor — the latency-optimal shape when
    [proc] is a fastest processor (Lemma 1). *)

val one_to_one : procs:int array -> t
(** [one_to_one ~procs] maps stage [k] onto [procs.(k-1)] ([n] distinct
    processors). *)

val of_cuts : n:int -> cuts:int list -> procs:int list -> t
(** [of_cuts ~n ~cuts ~procs] describes the partition by its internal cut
    positions: [cuts = [c_1; …; c_{m-1}]] strictly increasing with
    [1 ≤ c_i < n] produces intervals [\[1..c_1\], \[c_1+1..c_2\], …];
    [procs] lists the [m] processors in order. *)

val n : t -> int
(** Number of pipeline stages covered. *)

val m : t -> int
(** Number of intervals (= enrolled processors). *)

val interval : t -> int -> Interval.t
(** [interval t j] is [I_j], [0 ≤ j < m] (0-based interval index). *)

val proc : t -> int -> int
(** [proc t j] is the processor assigned to [I_j]. *)

val intervals : t -> (Interval.t * int) list
(** The assignment in pipeline order. *)

val procs : t -> int array
(** Enrolled processors in pipeline order (fresh array). *)

val proc_of_stage : t -> int -> int
(** [proc_of_stage t k] is the processor executing stage [k] (1-based). *)

val interval_of_proc : t -> int -> Interval.t option
(** The interval assigned to a given processor, if enrolled. *)

val uses : t -> int -> bool
(** [uses t u] is true when processor [u] is enrolled. *)

val replace : t -> j:int -> (Interval.t * int) list -> t
(** [replace t ~j parts] substitutes interval [j] by the given consecutive
    sub-assignment (used by the splitting heuristics). The parts must
    exactly cover [interval t j] in order, and newly enrolled processors
    must not collide with processors used elsewhere. *)

val renumber : int array -> t -> t
(** [renumber procs t] runs each interval of [t] on [procs.(u)] instead
    of [u]: a mapping solved on [Platform.restrict platform procs]
    carried back to [platform]'s indices. *)

val migration : Application.t -> before:t -> after:t -> int * float
(** The number of stages whose processor differs between [before] and
    [after], and the sum of their input sizes [δ_{k-1}] (the data each
    moved stage must re-stage), added in stage order. *)

val valid_on : t -> Platform.t -> bool
(** All assigned processor indices exist on the platform. *)

val equal : t -> t -> bool
val to_string : t -> string
(** E.g. ["{[1..3]->P2, [4]->P0}"]. *)
