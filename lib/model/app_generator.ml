module Rng = Pipeline_util.Rng

type value_dist =
  | Fixed of float
  | Int_uniform of int * int
  | Float_uniform of float * float

type spec = { n : int; work : value_dist; delta : value_dist }

let e1 ~n = { n; work = Int_uniform (1, 20); delta = Fixed 10. }
let e2 ~n = { n; work = Int_uniform (1, 20); delta = Int_uniform (1, 100) }
let e3 ~n = { n; work = Int_uniform (10, 1000); delta = Int_uniform (1, 20) }
let e4 ~n = { n; work = Float_uniform (0.01, 10.); delta = Int_uniform (1, 20) }

(* (E6) web scale: wide work spread, fixed message size. The uniform
   deltas are load-bearing — they are what lets Candidates.Set stay lazy
   at n = 50 000 (DESIGN.md §11). *)
let e6 ~n = { n; work = Int_uniform (1, 100); delta = Fixed 25. }

(* The JPEG2000-style encoder pipeline of the image-processing follow-up
   (PAPERS.md, arXiv 0801.1772): tiling, wavelet transform,
   quantisation, arithmetic coding (Tier-1) and stream formation
   (Tier-2). The paper's abstract names the pipeline but not its
   profile, so the weights here follow the standard JPEG2000 profiling
   narrative — Tier-1 dominates the compute, the data volume shrinks
   monotonically after quantisation — and are recorded as an
   interpretation choice in DESIGN.md §13. Fixed (not drawn), so every
   campaign family and the CLI see the identical application. *)
let jpeg2000 () =
  Skeleton.(
    to_application ~input:16.
      (pipeline
         [
           stage "tiling" ~work:4. ~out:16.;
           stage "dwt" ~work:30. ~out:16.;
           stage "quant" ~work:6. ~out:8.;
           stage "tier1" ~work:55. ~out:2.;
           stage "tier2" ~work:5. ~out:2.;
         ]))

let draw rng = function
  | Fixed v -> v
  | Int_uniform (lo, hi) -> float_of_int (Rng.int_in rng lo hi)
  | Float_uniform (lo, hi) -> Rng.float_in rng lo hi

let generate rng spec =
  if spec.n <= 0 then invalid_arg "App_generator.generate: n must be > 0";
  let works = Array.init spec.n (fun _ -> draw rng spec.work) in
  let deltas = Array.init (spec.n + 1) (fun _ -> draw rng spec.delta) in
  Application.make ~deltas works
