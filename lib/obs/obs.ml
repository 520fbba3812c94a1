(* Ambient, domain-safe observability handle. Two independent switches:
   metrics (deterministic counters/gauges) and tracing (wall-clock
   spans). Both default to off, and every instrumented call site pays
   exactly one atomic flag read in that state. *)

let metrics_on = Atomic.make false
let tracing_on = Atomic.make false

let metrics_enabled () = Atomic.get metrics_on

(* ------------------------------------------------------------------ *)
(* Metrics registry                                                    *)
(* ------------------------------------------------------------------ *)

type kind = Sum | Max

type entry = { name : string; doc : string; kind : kind; cell : int Atomic.t }

(* Registration happens at module-initialisation time (possibly from
   several libraries racing during startup, or from tests), so the
   registry is mutex-protected; hot-path increments only touch the
   entry's atomic cell. *)
let registry : (string, entry) Hashtbl.t = Hashtbl.create 64
let registry_lock = Mutex.create ()

let register ?(doc = "") name kind =
  Mutex.lock registry_lock;
  let entry =
    match Hashtbl.find_opt registry name with
    | Some e -> e
    | None ->
      let e = { name; doc; kind; cell = Atomic.make 0 } in
      Hashtbl.add registry name e;
      e
  in
  Mutex.unlock registry_lock;
  entry

let rec atomic_max cell v =
  let current = Atomic.get cell in
  if v > current && not (Atomic.compare_and_set cell current v) then
    atomic_max cell v

module Counter = struct
  type t = entry

  let make ?doc name = register ?doc name Sum
  let incr t = if Atomic.get metrics_on then ignore (Atomic.fetch_and_add t.cell 1)

  let add t n =
    if Atomic.get metrics_on && n > 0 then ignore (Atomic.fetch_and_add t.cell n)

  let value t = Atomic.get t.cell
end

module Gauge = struct
  type t = entry

  let make ?doc name = register ?doc name Max
  let observe t v = if Atomic.get metrics_on then atomic_max t.cell v
  let value t = Atomic.get t.cell
end

let entries () =
  Mutex.lock registry_lock;
  let all = Hashtbl.fold (fun _ e acc -> e :: acc) registry [] in
  Mutex.unlock registry_lock;
  List.sort (fun a b -> compare a.name b.name) all

let metrics () = List.map (fun e -> (e.name, Atomic.get e.cell)) (entries ())

let summary_table () =
  let all = entries () in
  let name_w =
    List.fold_left (fun w e -> max w (String.length e.name)) 6 all
  in
  let value_w =
    List.fold_left
      (fun w e -> max w (String.length (string_of_int (Atomic.get e.cell))))
      5 all
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "%-*s %*s  %s\n" name_w "metric" value_w "value" "description");
  Buffer.add_string buf (String.make (name_w + value_w + 14) '-');
  Buffer.add_char buf '\n';
  List.iter
    (fun e ->
      Buffer.add_string buf
        (Printf.sprintf "%-*s %*d  %s\n" name_w e.name value_w
           (Atomic.get e.cell) e.doc))
    all;
  Buffer.contents buf

let metrics_csv () =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "metric,value\n";
  List.iter
    (fun (name, v) -> Buffer.add_string buf (Printf.sprintf "%s,%d\n" name v))
    (metrics ());
  Buffer.contents buf

(* Prometheus text exposition ("metrics 0.0.4"): one `# HELP` / `# TYPE`
   preamble per metric, names mangled onto the [a-zA-Z0-9_] alphabet
   the format allows. Sum entries are counters, Max entries gauges. *)
let exposition () =
  let mangle name =
    String.map
      (fun c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c
        | _ -> '_')
      name
  in
  let buf = Buffer.create 1024 in
  List.iter
    (fun e ->
      let name = mangle e.name in
      if e.doc <> "" then
        Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" name e.doc);
      Buffer.add_string buf
        (Printf.sprintf "# TYPE %s %s\n" name
           (match e.kind with Sum -> "counter" | Max -> "gauge"));
      Buffer.add_string buf (Printf.sprintf "%s %d\n" name (Atomic.get e.cell)))
    (entries ());
  Buffer.contents buf

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

type span_ev = { sname : string; track : int; ts : float; dur : float }

(* Each domain records into its own buffer (no synchronisation on the
   hot path beyond the registration of a fresh buffer); buffers outlive
   their domain and are merged, sorted by start time, at export. *)
let buffers : span_ev list ref list ref = ref []
let buffers_lock = Mutex.create ()

let buffer_key : span_ev list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let b = ref [] in
      Mutex.lock buffers_lock;
      buffers := b :: !buffers;
      Mutex.unlock buffers_lock;
      b)

let track_key : int Domain.DLS.key = Domain.DLS.new_key (fun () -> 0)

(* Span timestamps are µs since the trace epoch (the last
   [set_tracing true]), keeping the exported numbers small. *)
let epoch = Atomic.make 0.

let now_us () = (Unix.gettimeofday () -. Atomic.get epoch) *. 1e6

let set_metrics on = Atomic.set metrics_on on

let set_tracing on =
  if on then Atomic.set epoch (Unix.gettimeofday ());
  Atomic.set tracing_on on

let reset () =
  List.iter (fun e -> Atomic.set e.cell 0) (entries ());
  Mutex.lock buffers_lock;
  List.iter (fun b -> b := []) !buffers;
  Mutex.unlock buffers_lock

let with_track track f =
  let saved = Domain.DLS.get track_key in
  Domain.DLS.set track_key track;
  Fun.protect ~finally:(fun () -> Domain.DLS.set track_key saved) f

let span name f =
  if not (Atomic.get tracing_on) then f ()
  else begin
    let start = now_us () in
    let record () =
      let b = Domain.DLS.get buffer_key in
      b :=
        {
          sname = name;
          track = Domain.DLS.get track_key;
          ts = start;
          dur = now_us () -. start;
        }
        :: !b
    in
    Fun.protect ~finally:record f
  end

let write_trace path =
  let events =
    Mutex.lock buffers_lock;
    let all = List.concat_map (fun b -> !b) !buffers in
    Mutex.unlock buffers_lock;
    List.sort
      (fun a b ->
        match compare a.ts b.ts with
        | 0 -> ( match compare a.track b.track with 0 -> compare a.sname b.sname | c -> c)
        | c -> c)
      all
  in
  let tracks =
    List.sort_uniq compare (List.map (fun e -> e.track) events)
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "[";
      let first = ref true in
      let emit s =
        if !first then first := false else output_string oc ",\n";
        output_string oc s
      in
      List.iter
        (fun track ->
          emit
            (Printf.sprintf
               "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":%d,\
                \"args\":{\"name\":\"pool worker %d\"}}"
               track track))
        tracks;
      List.iter
        (fun e ->
          emit
            (Printf.sprintf
               "{\"name\":\"%s\",\"cat\":\"obs\",\"ph\":\"X\",\"ts\":%.3f,\
                \"dur\":%.3f,\"pid\":0,\"tid\":%d}"
               (json_escape e.sname) e.ts e.dur e.track))
        events;
      output_string oc "]\n")
