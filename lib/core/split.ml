open Pipeline_model

type part = { first : int; last : int; proc : int }

type t = {
  inst : Instance.t;
  cost : Cost.t;            (* shared evaluation engine (comm-hom) *)
  order : int array;        (* processors by non-increasing speed *)
  next_rank : int;          (* rank of the next unused processor *)
  parts : part array;       (* intervals in pipeline order *)
  cycles : float array;     (* cycle-time per interval *)
  latency : float;
}

type arity = Two | Three | Three_or_two
type rule = Mono | Bi

let initial (inst : Instance.t) =
  if not (Platform.is_comm_homogeneous inst.platform) then
    invalid_arg "Split.initial: heuristics require a comm-homogeneous platform";
  let cost = Cost.get inst.app inst.platform in
  let order = Platform.by_decreasing_speed inst.platform in
  let n = Application.n inst.app in
  let u = order.(0) in
  let cycle = Cost.cycle cost ~d:1 ~e:n ~u in
  let latency = Cost.contrib cost ~d:1 ~e:n ~u +. Cost.dout cost ~e:n in
  {
    inst;
    cost;
    order;
    next_rank = 1;
    parts = [| { first = 1; last = n; proc = u } |];
    cycles = [| cycle |];
    latency;
  }

let latency t = t.latency
let intervals t = Array.length t.parts
let unused t = Array.length t.order - t.next_rank

let period t = Array.fold_left Float.max neg_infinity t.cycles

let cycle t j =
  if j < 0 || j >= intervals t then invalid_arg "Split.cycle: out of range";
  t.cycles.(j)

let length t j =
  if j < 0 || j >= intervals t then invalid_arg "Split.length: out of range";
  t.parts.(j).last - t.parts.(j).first + 1

let bottleneck t =
  let best = ref 0 in
  Array.iteri (fun j c -> if c > t.cycles.(!best) then best := j) t.cycles;
  !best

(* The winner so far of a scan, with the keys its rule compares. *)
type winner = {
  pieces : part array;
  piece_cycles : float array;
  max_piece : float;
  dlatency : float;
  ratio : float;
  index : int;  (* position in the paper's enumeration *)
}

let step ~arity ~rule t ~cap =
  let j = bottleneck t in
  let { first; last; proc = kept } = t.parts.(j) in
  let old_cycle = t.cycles.(j) in
  let old_contrib = Cost.contrib t.cost ~d:first ~e:last ~u:kept in
  (* The split under test: piece [i] is stages [d.(i)..e.(i)] on [u.(i)],
     in pipeline order. *)
  let d = Array.make 3 0 and e = Array.make 3 0 and u = Array.make 3 0 in
  let cyc = Array.make 3 0. in
  let improved = ref false and best = ref None in
  (* Score the [k]-piece split at enumeration position [index]: the
     largest piece, the contribution and the ratio are folded over the
     pieces in pipeline order, from [neg_infinity] or [0.]; keep it if it
     improves, meets [cap] and beats the winner under [rule] (the smaller
     index wins an exact tie). *)
  let consider k index =
    let max_piece = ref neg_infinity in
    for i = 0 to k - 1 do
      cyc.(i) <- Cost.cycle t.cost ~d:d.(i) ~e:e.(i) ~u:u.(i);
      max_piece := Float.max !max_piece cyc.(i)
    done;
    let max_piece = !max_piece in
    if max_piece >= old_cycle then ()
    else begin
      improved := true;
      let contrib = ref 0. in
      for i = 0 to k - 1 do
        contrib := !contrib +. Cost.contrib t.cost ~d:d.(i) ~e:e.(i) ~u:u.(i)
      done;
      let dlatency = !contrib -. old_contrib in
      let new_latency = t.latency +. dlatency in
      if Pipeline_util.Tol.meets new_latency cap then begin
        let ratio = ref neg_infinity in
        if rule = Bi then
          for i = 0 to k - 1 do
            ratio := Float.max !ratio (dlatency /. (old_cycle -. cyc.(i)))
          done;
        let ratio = !ratio in
        let wins =
          match (!best, rule) with
          | None, _ -> true
          | Some w, Mono -> (
            match compare max_piece w.max_piece with
            | 0 -> dlatency < w.dlatency || (dlatency = w.dlatency && index < w.index)
            | c -> c < 0)
          | Some w, Bi -> (
            match compare ratio w.ratio with
            | 0 -> max_piece < w.max_piece || (max_piece = w.max_piece && index < w.index)
            | c -> c < 0)
        in
        if wins then
          best :=
            Some
              {
                pieces =
                  Array.init k (fun i -> { first = d.(i); last = e.(i); proc = u.(i) });
                piece_cycles = Array.sub cyc 0 k;
                max_piece;
                dlatency;
                ratio;
                index;
              }
      end
    end
  in
  let set i first last proc =
    d.(i) <- first;
    e.(i) <- last;
    u.(i) <- proc
  in
  (* A piece's cycle-time is at least its computation time. As the cut
     moves right the first piece's computation never falls and the
     second's never rises, so under [Mono] each order walks right from
     the balancing cut and left of it, and stops at the first cut whose
     piece on that side computes too long to improve the interval or tie
     the winner's largest piece: no cut further out can. [Bi] ranks by a
     ratio this does not bound and walks every cut (DESIGN.md §9). *)
  let two () =
    if last > first && unused t >= 1 then begin
      let given = t.order.(t.next_rank) in
      for o = 0 to 1 do
        let ua = if o = 0 then kept else given and ub = if o = 0 then given else kept in
        let floor = if rule = Mono then Cost.balance t.cost ~first ~last ~u:ua ~v:ub else first in
        for dir = 0 to 1 do
          let c = ref (floor - dir) in
          while
            !c >= first && !c < last
            && (rule = Bi
               ||
               let x =
                 if dir = 0 then Cost.compute t.cost ~d:first ~e:!c ~u:ua
                 else Cost.compute t.cost ~d:(!c + 1) ~e:last ~u:ub
               in
               x < old_cycle && match !best with Some w -> x <= w.max_piece | None -> true)
          do
            set 0 first !c ua;
            set 1 (!c + 1) last ub;
            consider 2 ((2 * (!c - first)) + o);
            c := if dir = 0 then !c + 1 else !c - 1
          done
        done
      done
    end
  in
  let three () =
    if last - first >= 2 && unused t >= 2 then begin
      let u' = t.order.(t.next_rank) and u'' = t.order.(t.next_rank + 1) in
      (* The split processor keeps one of the three parts; the other two
         go to u' and u'' in both orders: six assignments per cut pair. *)
      let assignments =
        [|
          (kept, u', u''); (kept, u'', u');
          (u', kept, u''); (u'', kept, u');
          (u', u'', kept); (u'', u', kept);
        |]
      in
      let index = ref 0 in
      for c1 = first to last - 2 do
        for c2 = c1 + 1 to last - 1 do
          for a = 0 to 5 do
            let pa, pb, pc = assignments.(a) in
            set 0 first c1 pa;
            set 1 (c1 + 1) c2 pb;
            set 2 (c2 + 1) last pc;
            consider 3 !index;
            incr index
          done
        done
      done
    end
  in
  (match arity with
  | Two -> two ()
  | Three -> three ()
  | Three_or_two ->
    three ();
    if not !improved then two ());
  Option.map
    (fun w ->
      let splice a b =
        Array.concat [ Array.sub a 0 j; b; Array.sub a (j + 1) (Array.length a - j - 1) ]
      in
      {
        t with
        next_rank = t.next_rank + Array.length w.pieces - 1;
        parts = splice t.parts w.pieces;
        cycles = splice t.cycles w.piece_cycles;
        latency = t.latency +. w.dlatency;
      })
    !best

let stack ~arity ~rule inst =
  { Loop.start = initial inst; period; latency; step = step ~arity ~rule }

let to_solution t =
  let pairs =
    Array.to_list
      (Array.map (fun p -> (Interval.make ~first:p.first ~last:p.last, p.proc)) t.parts)
  in
  let mapping = Mapping.make ~n:(Application.n t.inst.Instance.app) pairs in
  Solution.of_mapping t.inst mapping
