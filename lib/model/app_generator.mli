(** Random pipeline applications, parameterised like the paper's four
    experiment families (§5.1).

    A {!spec} describes the distribution of stage weights and message
    sizes; {!generate} draws an application from a {!Pipeline_util.Rng.t}
    stream, so campaigns are reproducible. Integer-valued parameters are
    drawn as integers then stored as floats, exactly as in the paper
    ("the speed of each processor is randomly chosen as an integer
    between 1 and 20", etc.). *)

type value_dist =
  | Fixed of float                  (** constant value *)
  | Int_uniform of int * int        (** uniform integer in [lo, hi] *)
  | Float_uniform of float * float  (** uniform real in [lo, hi) *)

type spec = {
  n : int;            (** number of stages *)
  work : value_dist;  (** distribution of [w_k] *)
  delta : value_dist; (** distribution of [δ_k], including [δ_0] and [δ_n] *)
}

val e1 : n:int -> spec
(** (E1) balanced, homogeneous communications: [δ_i = 10], [w ∈ [1,20]]. *)

val e2 : n:int -> spec
(** (E2) balanced, heterogeneous communications: [δ ∈ [1,100]],
    [w ∈ [1,20]]. *)

val e3 : n:int -> spec
(** (E3) large computations: [δ ∈ [1,20]], [w ∈ [10,1000]]. *)

val e4 : n:int -> spec
(** (E4) small computations: [δ ∈ [1,20]], [w ∈ [0.01,10]]. *)

val e6 : n:int -> spec
(** (E6) web scale (not from the paper; DESIGN.md §11): [δ_i = 25],
    [w ∈ [1,100]]. The fixed message size keeps the candidate-period
    lattice monotone, so the exact threshold searches stay lazy at
    [n = 50 000]. *)

val jpeg2000 : unit -> Application.t
(** The JPEG2000-style encoder pipeline of the image-processing
    follow-up (PAPERS.md, arXiv 0801.1772): five fixed, labelled stages
    — tiling, DWT, quantisation, Tier-1 coding, Tier-2 stream formation
    — with Tier-1 dominating the compute and data volume shrinking
    after quantisation (the exact weights are an interpretation choice,
    DESIGN.md §13). Deterministic: not drawn from an RNG. *)

val draw : Pipeline_util.Rng.t -> value_dist -> float
(** One sample from a distribution. *)

val generate : Pipeline_util.Rng.t -> spec -> Application.t
(** Draw the [n] weights and [n+1] message sizes. *)
