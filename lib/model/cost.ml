(* One cost engine per (application, platform) pair. Every memoised value
   is produced by exactly the float expression the direct evaluation
   would use — same operands, same IEEE-754 association — so a cache hit
   and a cache miss are bit-identical (DESIGN.md §8). *)

type config = { proc : int; b_in : float; b_out : float }

type t = {
  app : Application.t;
  platform : Platform.t;
  n : int;
  comm_hom : bool;
  b : float;  (* common bandwidth; nan on fully heterogeneous platforms *)
  speeds : float array;
  din_t : float array;  (* δ_{d-1}/b, indexed by d = 1..n; [||] if fully het *)
  dout_t : float array;  (* δ_e/b, indexed by e = 0..n; [||] if fully het *)
  cycle_memo : bool;
  mutable cycles : float array;  (* (d,e,u) cycle-times, lazy; NaN = unset *)
  mutable configs : config array;  (* candidate configs; [||] = unset *)
  mutable period_cands : float array;  (* sorted candidate periods; [||] = unset *)
  mutable deal_cands : float array;  (* deal variant (cycle / r); [||] = unset *)
}

(* The eager tables are all O(n) flat float arrays: work sums come from
   the application's prefix table (an O(1) difference per query), so the
   engine build is O(n + p) at any size. Only the lazy (d,e,u) cycle
   table is quadratic in n; the cap keeps it at a few MB, and beyond it
   the engine computes cycles directly (same bits, no cache). *)
let max_cycle_entries = 1 lsl 22

(* Build/lookup tallies for the domain-local engine LRU below. These are
   deliberately plain atomics and NOT Obs counters: cache traffic depends
   on how work is sliced across domains, so the values are not
   jobs-invariant and must stay out of the golden-gated metrics dump.
   They surface in the bench's perf-summary "cache" block instead. *)
let n_engine_builds = Atomic.make 0
let n_lru_hits = Atomic.make 0
let n_lru_misses = Atomic.make 0
let n_candidate_builds = Atomic.make 0
let n_deal_candidate_builds = Atomic.make 0

type cache_stats = {
  engine_builds : int;
  lru_hits : int;
  lru_misses : int;
  candidate_builds : int;
  deal_candidate_builds : int;
}

let cache_stats () =
  {
    engine_builds = Atomic.get n_engine_builds;
    lru_hits = Atomic.get n_lru_hits;
    lru_misses = Atomic.get n_lru_misses;
    candidate_builds = Atomic.get n_candidate_builds;
    deal_candidate_builds = Atomic.get n_deal_candidate_builds;
  }

let tri n = n * (n + 1) / 2

(* Index of interval (d, e), 1 <= d <= e <= n, rows in d, growing e. *)
let idx n d e = ((d - 1) * n) - (((d - 1) * (d - 2)) / 2) + (e - d)

let make app platform =
  let n = Application.n app in
  let p = Platform.p platform in
  let comm_hom = Platform.is_comm_homogeneous platform in
  let b = if comm_hom then Platform.io_bandwidth platform 0 else Float.nan in
  let speeds = Platform.speeds platform in
  let entries = tri n in
  Atomic.incr n_engine_builds;
  let din_t, dout_t =
    if not comm_hom then ([||], [||])
    else begin
      let din = Array.make (n + 1) 0. and dout = Array.make (n + 1) 0. in
      for d = 1 to n do
        din.(d) <- Application.delta app (d - 1) /. b
      done;
      for e = 0 to n do
        dout.(e) <- Application.delta app e /. b
      done;
      (din, dout)
    end
  in
  let cycle_memo =
    comm_hom && entries <= max_cycle_entries
    && entries * p <= max_cycle_entries
  in
  {
    app;
    platform;
    n;
    comm_hom;
    b;
    speeds;
    din_t;
    dout_t;
    cycle_memo;
    cycles = [||];
    configs = [||];
    period_cands = [||];
    deal_cands = [||];
  }

let application t = t.app
let platform t = t.platform

(* Storage for the candidate-period arrays; the enumeration itself lives
   in Candidates so the engine stays agnostic of search concerns. A
   valid instance always has at least one candidate, so [||] is a safe
   "unset" sentinel. *)

let cached_candidates t ~build =
  if Array.length t.period_cands > 0 then t.period_cands
  else begin
    Atomic.incr n_candidate_builds;
    let a = build t in
    t.period_cands <- a;
    a
  end

let cached_deal_candidates t ~build =
  if Array.length t.deal_cands > 0 then t.deal_cands
  else begin
    Atomic.incr n_deal_candidate_builds;
    let a = build t in
    t.deal_cands <- a;
    a
  end

(* A small per-domain LRU of memoising engines, keyed on physical
   equality: solvers evaluate one instance many times in a row, but the
   failure campaign and the streaming resolver alternate between a
   handful of instances (rows × setups, live vs survivor platforms) —
   a single slot thrashes there and re-enumerates candidate sets on
   every alternation. Domain-local storage keeps the mutable cycle and
   candidate tables race-free without locks. *)
let lru_capacity = 8

let slot : t list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])

let get app platform =
  let r = Domain.DLS.get slot in
  (* [acc] holds the already-scanned prefix in reverse; on a hit the
     entry moves to the front and the rest keeps its order. *)
  let rec find acc = function
    | [] -> None
    | t :: rest ->
      if t.app == app && t.platform == platform then begin
        r := t :: List.rev_append acc rest;
        Some t
      end
      else find (t :: acc) rest
  in
  match find [] !r with
  | Some t ->
    Atomic.incr n_lru_hits;
    t
  | None ->
    Atomic.incr n_lru_misses;
    let t = make app platform in
    let kept = List.filteri (fun i _ -> i < lru_capacity - 1) !r in
    r := t :: kept;
    t

let require_comm_hom t who =
  if not t.comm_hom then
    invalid_arg (who ^ ": requires a comm-homogeneous platform")

(* Unchecked primitives; [_u] = no validation. The transfer tables exist
   on comm-homogeneous platforms only, and every caller of [din_u] and
   [dout_u] has checked that the platform is one. *)

let din_u t d = t.din_t.(d)
let dout_u t e = t.dout_t.(e)

(* The application's prefix table already serves W(d,e) as an O(1)
   difference, in the exact float every historical call site saw — no
   per-engine table needed. *)
let ws_u t d e = Application.work_sum t.app d e

(* The three terms of interval [d, e] on processor [u], the only formula
   of each: its input transfer from [prev], its computation, and its
   output transfer to [next]. A neighbour is the processor of the
   adjacent interval, or [io] for the pipeline's I/O port. Every
   cycle-time is (input + compute) + output, and the latency adds input
   then compute per interval, then the last output. *)
let io = -1

let link t a b =
  if a = io then Platform.io_bandwidth t.platform b
  else if b = io then Platform.io_bandwidth t.platform a
  else Platform.bandwidth t.platform a b

let[@inline] input_u t d ~prev u =
  if t.comm_hom then din_u t d else Application.delta t.app (d - 1) /. link t prev u

let[@inline] compute_u t d e u = ws_u t d e /. t.speeds.(u)

let[@inline] output_u t e u ~next =
  if t.comm_hom then dout_u t e else Application.delta t.app e /. link t u next

let contrib_u t d e u = din_u t d +. compute_u t d e u
let cycle_direct t d e u = din_u t d +. compute_u t d e u +. dout_u t e

let cycle_u t d e u =
  if not t.cycle_memo then cycle_direct t d e u
  else begin
    let p = Array.length t.speeds in
    if Array.length t.cycles = 0 then
      t.cycles <- Array.make (tri t.n * p) Float.nan;
    let i = (idx t.n d e * p) + u in
    let v = Array.unsafe_get t.cycles i in
    if Float.is_nan v then begin
      (* Cycle-times of valid instances are finite and non-negative, so
         NaN is a safe "unset" sentinel. *)
      let v = cycle_direct t d e u in
      Array.unsafe_set t.cycles i v;
      v
    end
    else v
  end

let check_interval t who d e =
  if d < 1 || e < d || e > t.n then
    invalid_arg (who ^ ": invalid stage interval")

let check_proc t who u =
  if u < 0 || u >= Array.length t.speeds then
    invalid_arg (who ^ ": processor out of range")

(* Candidate configurations (DESIGN.md §13): the one dispatch point that
   makes the finite-candidate argument platform-kind-agnostic. A mapped
   interval's cycle-time depends on its processor only through
   (speed, boundary-in bandwidth, boundary-out bandwidth); on a
   comm-homogeneous platform both boundary bandwidths are the common b,
   so the configs are exactly the speed representatives. On a fully
   heterogeneous platform every boundary bandwidth an interval on [u] can
   face is one of u's p-1 link bandwidths or its I/O bandwidth, so the
   (at most p·p²) configs cover every achievable cycle-time — a superset
   that still yields exact thresholds, because feasibility flips at an
   achievable (hence member) value. *)

let boundary_bandwidths t u =
  let p = Array.length t.speeds in
  let acc = ref [ Platform.io_bandwidth t.platform u ] in
  for v = 0 to p - 1 do
    if v <> u then acc := Platform.bandwidth t.platform u v :: !acc
  done;
  List.sort_uniq compare !acc

let candidate_configs t =
  if Array.length t.configs > 0 then t.configs
  else begin
    let p = Array.length t.speeds in
    let seen = Hashtbl.create 16 in
    let acc = ref [] in
    if t.comm_hom then
      (* One representative processor per distinct speed, smallest index
         first — the shrink the comm-homogeneous enumeration has always
         applied. *)
      Array.iteri
        (fun u s ->
          let key = (s, t.b, t.b) in
          if not (Hashtbl.mem seen key) then begin
            Hashtbl.add seen key ();
            acc := { proc = u; b_in = t.b; b_out = t.b } :: !acc
          end)
        t.speeds
    else
      for u = 0 to p - 1 do
        let bs = boundary_bandwidths t u in
        List.iter
          (fun b_in ->
            List.iter
              (fun b_out ->
                let key = (t.speeds.(u), b_in, b_out) in
                if not (Hashtbl.mem seen key) then begin
                  Hashtbl.add seen key ();
                  acc := { proc = u; b_in; b_out } :: !acc
                end)
              bs)
          bs
      done;
    let configs = Array.of_list (List.rev !acc) in
    t.configs <- configs;
    configs
  end

let config_cycle_u t d e (c : config) =
  if t.comm_hom then cycle_u t d e c.proc
  else
    Application.delta t.app (d - 1) /. c.b_in
    +. compute_u t d e c.proc
    +. (Application.delta t.app e /. c.b_out)

let config_cycle t ~d ~e config =
  check_interval t "Cost.config_cycle" d e;
  check_proc t "Cost.config_cycle" config.proc;
  config_cycle_u t d e config

(* Lattice sweeps over the implicit (d, e, config) candidate set of a
   uniform-delta application (DESIGN.md §11). With every δ_k equal, a
   config's boundary terms δ/b_in and δ/b_out do not depend on the
   interval, so its cycle-time is a monotone image of W(d,e): growing in
   e, shrinking in d. Two pointers then answer each query in O(n) per
   config. The loops live here because the dev profile compiles every
   module -opaque: a cross-module call per comparison boxes its floats,
   while these loops allocate nothing. [lattice_cycle] is
   config_cycle_u's association exactly, (δ/b_in + W/s) + δ/b_out, with
   W the same prefix difference, so every answer is the very float the
   materialised candidate array holds. *)

let[@inline] lattice_cycle (prefix : float array) d e hin s hout =
  hin +. ((Array.unsafe_get prefix e -. Array.unsafe_get prefix (d - 1)) /. s)
  +. hout

let lattice_bounds t =
  let n = t.n and prefix = Application.prefix_sums t.app in
  let delta = Application.delta t.app 0 in
  let configs = candidate_configs t in
  (* A single-stage cycle is the smallest of its row and column, and the
     whole chain the largest: both extremes are attained elements. *)
  let lo = ref infinity and hi = ref neg_infinity in
  for k = 0 to Array.length configs - 1 do
    let c = configs.(k) in
    let hin = delta /. c.b_in and s = t.speeds.(c.proc) in
    let hout = delta /. c.b_out in
    for d = 1 to n do
      let x = lattice_cycle prefix d d hin s hout in
      if x < !lo then lo := x
    done;
    let x = lattice_cycle prefix 1 n hin s hout in
    if x > !hi then hi := x
  done;
  (!lo, !hi)

let lattice_floor t v =
  let n = t.n and prefix = Application.prefix_sums t.app in
  let delta = Application.delta t.app 0 in
  let configs = candidate_configs t in
  let found = ref false and best = ref 0. in
  for k = 0 to Array.length configs - 1 do
    let c = configs.(k) in
    let hin = delta /. c.b_in and s = t.speeds.(c.proc) in
    let hout = delta /. c.b_out in
    (* The largest end whose cycle is <= v never decreases with d
       (growing d only shrinks W), so one forward pointer serves every
       start; that end holds its row's largest value under v. *)
    let e = ref 0 in
    for d = 1 to n do
      if !e < d - 1 then e := d - 1;
      while !e < n && lattice_cycle prefix d (!e + 1) hin s hout <= v do
        incr e
      done;
      if !e >= d then begin
        let x = lattice_cycle prefix d !e hin s hout in
        if (not !found) || x > !best then begin
          found := true;
          best := x
        end
      end
    done
  done;
  if !found then Some !best else None

let lattice_ceiling t v =
  let n = t.n and prefix = Application.prefix_sums t.app in
  let delta = Application.delta t.app 0 in
  let configs = candidate_configs t in
  let found = ref false and best = ref 0. in
  for k = 0 to Array.length configs - 1 do
    let c = configs.(k) in
    let hin = delta /. c.b_in and s = t.speeds.(c.proc) in
    let hout = delta /. c.b_out in
    (* The mirror sweep: the first end whose cycle reaches v never
       decreases with d, and once a start has no such end no later
       start does (cycles only shrink with d). *)
    let e = ref 1 and d = ref 1 in
    while !d <= n do
      if !e < !d then e := !d;
      while !e <= n && lattice_cycle prefix !d !e hin s hout < v do
        incr e
      done;
      if !e > n then d := n + 1
      else begin
        let x = lattice_cycle prefix !d !e hin s hout in
        if (not !found) || x < !best then begin
          found := true;
          best := x
        end;
        incr d
      end
    done
  done;
  if !found then Some !best else None

let din t ~d =
  require_comm_hom t "Cost.din";
  check_interval t "Cost.din" d d;
  din_u t d

let dout t ~e =
  require_comm_hom t "Cost.dout";
  if e < 0 || e > t.n then invalid_arg "Cost.dout: invalid stage index";
  dout_u t e

let work_sum t ~d ~e =
  check_interval t "Cost.work_sum" d e;
  ws_u t d e

let check_neighbour t who v = if v <> io then check_proc t who v

let input t ~d ~prev ~u =
  check_interval t "Cost.input" d d;
  check_proc t "Cost.input" u;
  check_neighbour t "Cost.input" prev;
  input_u t d ~prev u

let compute t ~d ~e ~u =
  check_interval t "Cost.compute" d e;
  check_proc t "Cost.compute" u;
  compute_u t d e u

let output t ~e ~u ~next =
  check_interval t "Cost.output" e e;
  check_proc t "Cost.output" u;
  check_neighbour t "Cost.output" next;
  output_u t e u ~next

let contrib t ~d ~e ~u =
  require_comm_hom t "Cost.contrib";
  check_interval t "Cost.contrib" d e;
  check_proc t "Cost.contrib" u;
  contrib_u t d e u

let cycle t ~d ~e ~u =
  require_comm_hom t "Cost.cycle";
  check_interval t "Cost.cycle" d e;
  check_proc t "Cost.cycle" u;
  cycle_u t d e u

let period_lower_bound t =
  let s_max = Platform.speed t.platform (Platform.fastest t.platform) in
  (* Best-case boundary bandwidth: the common b when comm-homogeneous,
     otherwise the fastest I/O port any processor offers (the pipeline
     ends always pay an I/O transfer, never a faster internal link). *)
  let b =
    if t.comm_hom then Platform.io_bandwidth t.platform 0
    else begin
      let best = ref neg_infinity in
      for u = 0 to Array.length t.speeds - 1 do
        best := Float.max !best (Platform.io_bandwidth t.platform u)
      done;
      !best
    end
  in
  let n = t.n in
  (* Every stage's computation is paid somewhere, at best at full speed;
     the first interval pays the pipeline input, the last one its
     output. *)
  let per_stage = ref 0. in
  for k = 1 to n do
    per_stage := Float.max !per_stage (ws_u t k k /. s_max)
  done;
  let input_bound = (Application.delta t.app 0 /. b) +. (ws_u t 1 1 /. s_max) in
  let output_bound = (Application.delta t.app n /. b) +. (ws_u t n n /. s_max) in
  Float.max !per_stage (Float.max input_bound output_bound)

(* Plain interval mappings (any platform kind). *)

let check t mapping =
  if Mapping.n mapping <> t.n then
    invalid_arg "Cost: mapping and application disagree on n";
  if not (Mapping.valid_on mapping t.platform) then
    invalid_arg "Cost: mapping references processors outside the platform"

let cycle_time_u t mapping j =
  let iv = Mapping.interval mapping j in
  let u = Mapping.proc mapping j in
  let d = Interval.first iv and e = Interval.last iv in
  if t.comm_hom then cycle_u t d e u
  else
    let prev = if j = 0 then io else Mapping.proc mapping (j - 1) in
    let next = if j = Mapping.m mapping - 1 then io else Mapping.proc mapping (j + 1) in
    input_u t d ~prev u +. compute_u t d e u +. output_u t e u ~next

let cycle_time t mapping j =
  check t mapping;
  if j < 0 || j >= Mapping.m mapping then
    invalid_arg "Cost.cycle_time: interval index out of range";
  cycle_time_u t mapping j

let period_u t mapping =
  let worst = ref neg_infinity in
  for j = 0 to Mapping.m mapping - 1 do
    worst := Float.max !worst (cycle_time_u t mapping j)
  done;
  !worst

let period t mapping =
  check t mapping;
  period_u t mapping

let bottleneck t mapping =
  check t mapping;
  let best_j = ref 0 and best = ref neg_infinity in
  for j = 0 to Mapping.m mapping - 1 do
    let c = cycle_time_u t mapping j in
    if c > !best then begin
      best := c;
      best_j := j
    end
  done;
  !best_j

let latency_u t mapping =
  let total = ref 0. and prev = ref io in
  for j = 0 to Mapping.m mapping - 1 do
    let iv = Mapping.interval mapping j in
    let u = Mapping.proc mapping j in
    let d = Interval.first iv and e = Interval.last iv in
    let input = input_u t d ~prev:!prev u in
    total := !total +. input +. compute_u t d e u;
    prev := u
  done;
  !total +. output_u t t.n !prev ~next:io

let latency t mapping =
  check t mapping;
  latency_u t mapping

type summary = { period : float; latency : float; intervals : int }

let summary t mapping =
  check t mapping;
  {
    period = period_u t mapping;
    latency = latency_u t mapping;
    intervals = Mapping.m mapping;
  }

(* Deal-replication layer (comm-homogeneous only). *)

let deal_check t deal =
  require_comm_hom t "Cost.deal";
  if Deal_mapping.n deal <> t.n then
    invalid_arg "Cost: deal mapping and application disagree on n";
  if not (Deal_mapping.valid_on deal t.platform) then
    invalid_arg "Cost: deal mapping references processors outside the platform"

let deal_cycle_u t deal j u =
  let iv = Deal_mapping.interval deal j in
  cycle_u t (Interval.first iv) (Interval.last iv) u

let deal_cycle t deal ~j ~u =
  deal_check t deal;
  if j < 0 || j >= Deal_mapping.m deal then
    invalid_arg "Cost.deal_cycle: interval out of range";
  if not (List.mem u (Deal_mapping.replicas deal j)) then
    invalid_arg "Cost.deal_cycle: processor is not a replica of the interval";
  deal_cycle_u t deal j u

let fold_intervals_u t deal f init =
  let acc = ref init in
  for j = 0 to Deal_mapping.m deal - 1 do
    let cycles =
      List.map (fun u -> deal_cycle_u t deal j u) (Deal_mapping.replicas deal j)
    in
    acc := f !acc j cycles
  done;
  !acc

let deal_period_u t deal =
  fold_intervals_u t deal
    (fun acc j cycles ->
      let r = float_of_int (Deal_mapping.replication deal j) in
      let worst = List.fold_left Float.max neg_infinity cycles in
      Float.max acc (worst /. r))
    neg_infinity

let deal_period t deal =
  deal_check t deal;
  deal_period_u t deal

let deal_period_weighted t deal =
  deal_check t deal;
  fold_intervals_u t deal
    (fun acc _j cycles ->
      let rate = List.fold_left (fun s c -> s +. (1. /. c)) 0. cycles in
      Float.max acc (1. /. rate))
    neg_infinity

let deal_latency_u t deal =
  let total =
    fold_intervals_u t deal
      (fun acc j cycles ->
        (* Worst replica's input + compute: its cycle minus the interval's
           output transfer (identical for all replicas on comm-hom). *)
        let iv = Deal_mapping.interval deal j in
        let out = dout_u t (Interval.last iv) in
        let worst = List.fold_left Float.max neg_infinity cycles in
        acc +. (worst -. out))
      0.
  in
  total +. dout_u t t.n

let deal_latency t deal =
  deal_check t deal;
  deal_latency_u t deal

let deal_bottleneck t deal =
  deal_check t deal;
  let best = ref 0 and worst = ref neg_infinity in
  for j = 0 to Deal_mapping.m deal - 1 do
    let r = float_of_int (Deal_mapping.replication deal j) in
    let contribution =
      List.fold_left
        (fun acc u -> Float.max acc (deal_cycle_u t deal j u))
        neg_infinity
        (Deal_mapping.replicas deal j)
      /. r
    in
    if contribution > !worst then begin
      worst := contribution;
      best := j
    end
  done;
  !best

type deal_summary = { period : float; latency : float; processors : int }

let deal_summary t deal =
  deal_check t deal;
  {
    period = deal_period_u t deal;
    latency = deal_latency_u t deal;
    processors = List.length (Deal_mapping.processors deal);
  }

(* Reliability layer. *)

let interval_failure rel deal ~j =
  Reliability.group_failure rel (Deal_mapping.replicas deal j)

let failure rel deal =
  (* Validate enrolment eagerly so the error names this entry point. *)
  List.iter
    (fun u ->
      if u < 0 || u >= Reliability.p rel then
        invalid_arg "Cost.failure: processor out of range")
    (Deal_mapping.processors deal);
  let survive_all = ref 1. in
  for j = 0 to Deal_mapping.m deal - 1 do
    survive_all := !survive_all *. (1. -. interval_failure rel deal ~j)
  done;
  1. -. !survive_all

type ft_summary = { period : float; latency : float; failure : float }

let ft_summary t rel deal =
  let (s : deal_summary) = deal_summary t deal in
  { period = s.period; latency = s.latency; failure = failure rel deal }
