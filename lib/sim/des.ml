type t = {
  mutable clock : float;
  events : (t -> unit) Heap.t;
  mutable max_queue : int;
}

let c_fired = Obs.Counter.make ~doc:"DES events fired" "sim.des.fired"

let c_cancelled =
  Obs.Counter.make ~doc:"DES events cancelled before firing" "sim.des.cancelled"

let g_max_queue =
  Obs.Gauge.make ~doc:"largest DES event-queue depth observed"
    "sim.des.max_queue"

let create () = { clock = 0.; events = Heap.create (); max_queue = 0 }
let now t = t.clock

let schedule_at t ~time handler =
  if Float.is_nan time || time < t.clock then
    invalid_arg "Des.schedule_at: time in the past";
  Heap.push t.events ~priority:time handler;
  if Obs.metrics_enabled () then
    t.max_queue <- max t.max_queue (Heap.size t.events)

let schedule t ~delay handler =
  if not (Float.is_finite delay) || delay < 0. then
    invalid_arg "Des.schedule: delay must be finite and >= 0";
  schedule_at t ~time:(t.clock +. delay) handler

let run ?(until = infinity) t =
  let fired = ref 0 in
  let continue = ref true in
  while !continue do
    match Heap.peek t.events with
    | None -> continue := false
    | Some (time, _) when time > until -> continue := false
    | Some _ ->
      (match Heap.pop t.events with
      | Some (time, handler) ->
        t.clock <- time;
        incr fired;
        handler t
      | None -> continue := false)
  done;
  (* One flush per run: sums and maxima merge order-independently, so
     the totals match at any [--jobs N]. *)
  Obs.Counter.add c_fired !fired;
  Obs.Gauge.observe g_max_queue t.max_queue

let pending t = Heap.size t.events

type handle = { mutable live : bool }

let schedule_cancellable t ~delay handler =
  let h = { live = true } in
  schedule t ~delay (fun t -> if h.live then handler t);
  h

let cancel _t h =
  if h.live then Obs.Counter.incr c_cancelled;
  h.live <- false
let cancelled h = not h.live
