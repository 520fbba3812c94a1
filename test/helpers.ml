(* Shared test utilities. *)

open Pipeline_model

let feq ?(eps = 1e-9) a b =
  a = b
  || Float.abs (a -. b) <= eps *. Float.max 1. (Float.max (Float.abs a) (Float.abs b))

let float_eps = Alcotest.testable Fmt.float (fun a b -> feq a b)

let check_float msg expected actual = Alcotest.check float_eps msg expected actual

(* A fixed hand-checkable instance: 4 stages, 3 processors, b = 10. *)
let small_app () =
  Application.make
    ~deltas:[| 10.; 20.; 30.; 20.; 10. |]
    [| 4.; 8.; 2.; 6. |]

let small_platform () = Platform.comm_homogeneous ~bandwidth:10. [| 2.; 4.; 1. |]

let small_instance () = Instance.make (small_app ()) (small_platform ())

(* Random instance generators for property tests. *)
let random_instance ?(n_max = 12) ?(p_max = 6) seed =
  let rng = Pipeline_util.Rng.create seed in
  let n = 1 + Pipeline_util.Rng.int rng n_max in
  let p = 1 + Pipeline_util.Rng.int rng p_max in
  let works =
    Array.init n (fun _ -> float_of_int (Pipeline_util.Rng.int_in rng 1 20))
  in
  let deltas =
    Array.init (n + 1) (fun _ -> float_of_int (Pipeline_util.Rng.int_in rng 0 30))
  in
  let speeds =
    Array.init p (fun _ -> float_of_int (Pipeline_util.Rng.int_in rng 1 20))
  in
  let app = Application.make ~deltas works in
  let platform = Platform.comm_homogeneous ~bandwidth:10. speeds in
  Instance.make ~seed app platform

(* Uniform message sizes — the precondition of the lattice ceiling
   (Cost.lattice_ceiling), so the lattice props can compare it with the
   array on every draw. *)
let random_uniform_delta_instance ?(n_max = 12) ?(p_max = 6) seed =
  let rng = Pipeline_util.Rng.create seed in
  let n = 1 + Pipeline_util.Rng.int rng n_max in
  let p = 1 + Pipeline_util.Rng.int rng p_max in
  let delta = float_of_int (Pipeline_util.Rng.int_in rng 0 30) in
  let works =
    Array.init n (fun _ -> float_of_int (Pipeline_util.Rng.int_in rng 1 20))
  in
  let speeds =
    Array.init p (fun _ -> float_of_int (Pipeline_util.Rng.int_in rng 1 20))
  in
  let app = Application.make ~deltas:(Array.make (n + 1) delta) works in
  let platform = Platform.comm_homogeneous ~bandwidth:10. speeds in
  Instance.make ~seed app platform

(* Draws on which a cycle-time's computation term is tight or breaks:
   runs of zero works and zero deltas make exact ties between cuts,
   works of 2^±30 swamp the transfers or vanish beside them, works near
   1e308 overflow the prefix sums (about one draw in four may), and
   speeds drawn from three values tie. Deltas are all zero, uniform or
   real. *)
let random_edge_instance ?(n_max = 12) ?(p_max = 6) seed =
  let module R = Pipeline_util.Rng in
  let rng = R.create seed in
  let n = 1 + R.int rng n_max in
  let p = 1 + R.int rng p_max in
  let huge = R.int rng 4 = 0 in
  let works = Array.make n 0. in
  let k = ref 0 in
  while !k < n do
    let kind = R.int rng 4 and run = 1 + R.int rng 6 in
    for i = !k to min n (!k + run) - 1 do
      works.(i) <-
        (match kind with
        | 0 -> 0.
        | 1 -> Float.ldexp 1. (R.int_in rng (-30) 30)
        | 2 when huge -> R.float_in rng 1e307 1.7e308
        | _ -> float_of_int (R.int_in rng 1 20))
    done;
    k := !k + run
  done;
  let deltas =
    match R.int rng 3 with
    | 0 -> Array.make (n + 1) 0.
    | 1 -> Array.make (n + 1) (float_of_int (R.int_in rng 1 30))
    | _ -> Array.init (n + 1) (fun _ -> R.float rng 30.)
  in
  let speeds = Array.init p (fun _ -> R.pick rng [| 1.; 3.; 8. |]) in
  let app = Application.make ~deltas works in
  let platform = Platform.comm_homogeneous ~bandwidth:10. speeds in
  Instance.make ~seed app platform

(* Fully heterogeneous draws: symmetric per-link bandwidth matrix and
   per-processor I/O bandwidths, so the het candidate-family props and
   the transform collapse laws exercise every platform shape. *)
let random_het_instance ?(n_max = 12) ?(p_max = 6) seed =
  let rng = Pipeline_util.Rng.create seed in
  let n = 1 + Pipeline_util.Rng.int rng n_max in
  let p = 1 + Pipeline_util.Rng.int rng p_max in
  let works =
    Array.init n (fun _ -> float_of_int (Pipeline_util.Rng.int_in rng 1 20))
  in
  let deltas =
    Array.init (n + 1) (fun _ -> float_of_int (Pipeline_util.Rng.int_in rng 0 30))
  in
  let speeds =
    Array.init p (fun _ -> float_of_int (Pipeline_util.Rng.int_in rng 1 20))
  in
  let bandwidths = Array.make_matrix p p 0. in
  for u = 0 to p - 1 do
    for v = u + 1 to p - 1 do
      let b = float_of_int (Pipeline_util.Rng.int_in rng 1 30) in
      bandwidths.(u).(v) <- b;
      bandwidths.(v).(u) <- b
    done
  done;
  let io_bandwidths =
    Array.init p (fun _ -> float_of_int (Pipeline_util.Rng.int_in rng 1 30))
  in
  let app = Application.make ~deltas works in
  let platform =
    Platform.fully_heterogeneous ~io_bandwidths ~bandwidths speeds
  in
  Instance.make ~seed app platform

(* Het platform, uniform message sizes: the lattice ceiling on fully-het
   candidate families. *)
let random_uniform_delta_het_instance ?(n_max = 12) ?(p_max = 6) seed =
  let inst = random_het_instance ~n_max ~p_max seed in
  let app = inst.Instance.app in
  let n = Application.n app in
  let delta = Application.delta app 0 in
  let uniform =
    Application.make ~deltas:(Array.make (n + 1) delta) (Application.works app)
  in
  Instance.make ~seed uniform inst.Instance.platform

(* A deterministic list of seeds for "for all seeds" loops. *)
let seeds count = List.init count (fun i -> 1000 + (7919 * i))

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name gen prop)
