(* Observability: counter semantics, the jobs-independence (bit-identity)
   contract, and well-formedness of the Chrome trace export. *)

open Pipeline_model
module E = Pipeline_experiments

let with_jobs jobs f =
  let saved = Pipeline_util.Pool.jobs () in
  Pipeline_util.Pool.set_jobs jobs;
  Fun.protect ~finally:(fun () -> Pipeline_util.Pool.set_jobs saved) f

(* Each test drives the process-wide switches, so every test restores
   the default (off, zeroed) state on exit. *)
let with_metrics f =
  Obs.reset ();
  Obs.set_metrics true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_metrics false;
      Obs.reset ())
    f

(* The full name-sorted dump after running [f] under [jobs] domains:
   the object the determinism contract gates. *)
let snapshot ~jobs f =
  with_metrics (fun () ->
      with_jobs jobs (fun () -> ignore (f ()));
      Obs.metrics ())

let metrics_t = Alcotest.(list (pair string int))

let check_bit_identical name f =
  Alcotest.check metrics_t name (snapshot ~jobs:1 f) (snapshot ~jobs:4 f)

(* ------------------------------------------------------------------ *)
(* Counter semantics                                                   *)
(* ------------------------------------------------------------------ *)

let test_off_by_default () =
  let c = Obs.Counter.make "test.off" in
  Obs.reset ();
  Alcotest.(check bool) "metrics start disabled" false (Obs.metrics_enabled ());
  Obs.Counter.incr c;
  Obs.Counter.add c 10;
  Alcotest.(check int) "disabled counter stays 0" 0 (Obs.Counter.value c)

let test_counter_accumulates () =
  with_metrics (fun () ->
      let c = Obs.Counter.make "test.acc" in
      Obs.Counter.incr c;
      Obs.Counter.add c 41;
      Alcotest.(check int) "incr + add" 42 (Obs.Counter.value c);
      Obs.reset ();
      Alcotest.(check int) "reset zeroes" 0 (Obs.Counter.value c))

let test_gauge_max () =
  with_metrics (fun () ->
      let g = Obs.Gauge.make "test.gauge" in
      Obs.Gauge.observe g 3;
      Obs.Gauge.observe g 7;
      Obs.Gauge.observe g 5;
      Alcotest.(check int) "keeps the maximum" 7 (Obs.Gauge.value g))

let test_make_idempotent () =
  with_metrics (fun () ->
      let a = Obs.Counter.make "test.same" in
      let b = Obs.Counter.make "test.same" in
      Obs.Counter.incr a;
      Obs.Counter.incr b;
      Alcotest.(check int) "one cell behind the name" 2 (Obs.Counter.value a))

let test_metrics_sorted () =
  let names = List.map fst (Obs.metrics ()) in
  Alcotest.(check (list string))
    "name-sorted dump" (List.sort compare names) names

let test_concurrent_increments () =
  (* Sums from racing domains must add up exactly. *)
  with_metrics (fun () ->
      let c = Obs.Counter.make "test.race" in
      with_jobs 4 (fun () ->
          ignore
            (Pipeline_util.Pool.map
               (fun _ ->
                 for _ = 1 to 1000 do
                   Obs.Counter.incr c
                 done)
               (Array.make 8 ())));
      Alcotest.(check int) "8 x 1000 increments" 8000 (Obs.Counter.value c))

let test_csv_shape () =
  with_metrics (fun () ->
      let c = Obs.Counter.make "test.csv" in
      Obs.Counter.add c 5;
      let csv = Obs.metrics_csv () in
      let lines = String.split_on_char '\n' (String.trim csv) in
      Alcotest.(check string) "header" "metric,value" (List.hd lines);
      Alcotest.(check bool) "row present" true
        (List.mem "test.csv,5" lines))

(* ------------------------------------------------------------------ *)
(* Bit-identity at --jobs 1 vs --jobs 4                                *)
(* ------------------------------------------------------------------ *)

let gen_seed = QCheck2.Gen.int_range 0 100_000

let prop_exhaustive_counters =
  Helpers.qtest ~count:25 "obs: Exhaustive counters jobs=4 = jobs=1" gen_seed
    (fun seed ->
      let inst = Helpers.random_instance ~n_max:6 ~p_max:4 seed in
      snapshot ~jobs:1 (fun () -> Pipeline_optimal.Exhaustive.min_period inst)
      = snapshot ~jobs:4 (fun () ->
            Pipeline_optimal.Exhaustive.min_period inst))

let prop_pareto_counters =
  Helpers.qtest ~count:15 "obs: pareto counters jobs=4 = jobs=1" gen_seed
    (fun seed ->
      let inst = Helpers.random_instance ~n_max:5 ~p_max:4 seed in
      snapshot ~jobs:1 (fun () -> Pipeline_optimal.Exhaustive.pareto inst)
      = snapshot ~jobs:4 (fun () -> Pipeline_optimal.Exhaustive.pareto inst))

let prop_deal_counters =
  Helpers.qtest ~count:15 "obs: Deal_exhaustive counters jobs=4 = jobs=1"
    gen_seed (fun seed ->
      let inst = Helpers.random_instance ~n_max:4 ~p_max:3 seed in
      snapshot ~jobs:1 (fun () -> Pipeline_deal.Deal_exhaustive.min_period inst)
      = snapshot ~jobs:4 (fun () ->
            Pipeline_deal.Deal_exhaustive.min_period inst))

let smoke_setup () =
  E.Config.default_setup ~pairs:2 ~sweep_points:3 ~seed:2007 E.Config.E1 ~n:5
    ~p:4

let test_campaign_counters () =
  check_bit_identical "figure counters identical" (fun () ->
      E.Campaign.figure (smoke_setup ()))

let test_fault_campaign_counters () =
  check_bit_identical "fault campaign counters identical" (fun () ->
      E.Fault_campaign.run ~crash_counts:[ 0; 2 ] ~datasets:30 (smoke_setup ()))

let test_table1_counters () =
  check_bit_identical "table1 counters identical" (fun () ->
      E.Failure.table ~pairs:2 ~seed:2007 E.Config.E1 ~p:4 ~ns:[ 3; 5 ])

let test_counters_nonzero () =
  (* The instrumented hot paths actually count: a smoke figure moves the
     sweep/bisection counters, a simulated crash moves the DES and fault
     ones, a remap moves lib/ft's. *)
  let metrics =
    snapshot ~jobs:4 (fun () ->
        ignore (E.Campaign.figure (smoke_setup ()));
        let inst = Helpers.small_instance () in
        let mapping = Mapping.of_cuts ~n:4 ~cuts:[ 2 ] ~procs:[ 1; 0 ] in
        let module W = Pipeline_sim.Workload_sim in
        ignore
          (W.run
             ~config:
               {
                 W.default_config with
                 W.crashes = [ { W.at = 2.; proc = 1; recover_at = None } ];
               }
             inst mapping);
        ignore
          (Pipeline_ft.Ft_remap.remap inst ~before:mapping ~failed:[ 1 ]
             ~threshold:(Instance.single_proc_period inst)))
  in
  let value name = List.assoc name metrics in
  List.iter
    (fun name ->
      Alcotest.(check bool)
        (name ^ " counted something")
        true
        (value name > 0))
    [
      "experiments.solves";
      "core.sp_bi_p.bisect_iters";
      "pool.maps";
      "pool.items";
      "sim.des.fired";
      "sim.des.max_queue";
      "sim.workload.runs";
      "sim.fault.killed";
      "ft.remap.calls";
    ]

(* ------------------------------------------------------------------ *)
(* Chrome trace well-formedness                                        *)
(* ------------------------------------------------------------------ *)

(* A minimal JSON reader (no external dependency is available): enough
   of RFC 8259 to fully parse the trace_event exports. *)
type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Bad_json of string

let parse_json text =
  let pos = ref 0 in
  let len = String.length text in
  let fail msg = raise (Bad_json (Printf.sprintf "%s at %d" msg !pos)) in
  let peek () = if !pos < len then Some text.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some d when d = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %c" c)
  in
  let literal word value =
    String.iter expect word;
    value
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
        advance ();
        match peek () with
        | Some 'n' -> advance (); Buffer.add_char buf '\n'; loop ()
        | Some 't' -> advance (); Buffer.add_char buf '\t'; loop ()
        | Some 'u' ->
          advance ();
          for _ = 1 to 4 do advance () done;
          Buffer.add_char buf '?';
          loop ()
        | Some c -> advance (); Buffer.add_char buf c; loop ()
        | None -> fail "unterminated escape")
      | Some c ->
        advance ();
        Buffer.add_char buf c;
        loop ()
    in
    loop ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> is_num_char c | None -> false) do
      advance ()
    done;
    match float_of_string_opt (String.sub text start (!pos - start)) with
    | Some f -> f
    | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin advance (); Obj [] end
      else begin
        let rec members acc =
          skip_ws ();
          let key = parse_string () in
          skip_ws ();
          expect ':';
          let value = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); members ((key, value) :: acc)
          | Some '}' -> advance (); Obj (List.rev ((key, value) :: acc))
          | _ -> fail "expected , or }"
        in
        members []
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin advance (); Arr [] end
      else begin
        let rec elements acc =
          let value = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); elements (value :: acc)
          | Some ']' -> advance (); Arr (List.rev (value :: acc))
          | _ -> fail "expected , or ]"
        in
        elements []
      end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> Num (parse_number ())
    | None -> fail "unexpected end of input"
  in
  let value = parse_value () in
  skip_ws ();
  if !pos <> len then fail "trailing garbage";
  value

let field name = function
  | Obj members -> List.assoc_opt name members
  | _ -> None

(* Every trace_event object must carry ph/pid/tid; complete events also
   carry name, ts and dur. *)
let check_trace_events json =
  match json with
  | Arr events ->
    Alcotest.(check bool) "non-empty trace" true (events <> []);
    List.iter
      (fun event ->
        match field "ph" event with
        | Some (Str "X") ->
          List.iter
            (fun key ->
              Alcotest.(check bool) ("X event has " ^ key) true
                (field key event <> None))
            [ "name"; "ts"; "dur"; "pid"; "tid" ]
        | Some (Str "M") ->
          Alcotest.(check bool) "M event has args" true
            (field "args" event <> None)
        | _ -> Alcotest.fail "event with unexpected ph")
      events
  | _ -> Alcotest.fail "trace is not a JSON array"

let test_trace_valid_json () =
  Obs.set_tracing true;
  Fun.protect
    ~finally:(fun () -> Obs.set_tracing false)
    (fun () ->
      Obs.span "outer" (fun () ->
          Obs.span "inner" (fun () -> ignore (Sys.opaque_identity 42)));
      (* Spans recorded from pool workers land on per-worker tracks. *)
      with_jobs 4 (fun () ->
          ignore
            (Pipeline_util.Pool.map
               (fun i -> Obs.span "work" (fun () -> i * 2))
               (Array.init 8 Fun.id)));
      let path = Filename.temp_file "obs-trace" ".json" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Obs.write_trace path;
          let ic = open_in_bin path in
          let text =
            Fun.protect
              ~finally:(fun () -> close_in ic)
              (fun () -> really_input_string ic (in_channel_length ic))
          in
          check_trace_events (parse_json text)))

let test_span_records_on_exception () =
  Obs.set_tracing true;
  Fun.protect
    ~finally:(fun () -> Obs.set_tracing false)
    (fun () ->
      (try Obs.span "raising" (fun () -> failwith "boom")
       with Failure _ -> ());
      let path = Filename.temp_file "obs-trace" ".json" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Obs.write_trace path;
          let ic = open_in_bin path in
          let text =
            Fun.protect
              ~finally:(fun () -> close_in ic)
              (fun () -> really_input_string ic (in_channel_length ic))
          in
          match parse_json text with
          | Arr events ->
            Alcotest.(check bool) "raising span recorded" true
              (List.exists
                 (fun e -> field "name" e = Some (Str "raising"))
                 events)
          | _ -> Alcotest.fail "trace is not a JSON array"))

let test_sim_trace_valid_json () =
  (* The DES op-trace exporter predates lib/obs; hold it to the same
     well-formedness bar. *)
  let inst = Helpers.small_instance () in
  let mapping = Mapping.of_cuts ~n:4 ~cuts:[ 2 ] ~procs:[ 1; 0 ] in
  let trace = Pipeline_sim.Runner.run inst mapping ~datasets:5 in
  check_trace_events (parse_json (Pipeline_sim.Trace.to_chrome_json trace))

let () =
  Alcotest.run "obs"
    [
      ( "counters",
        [
          Alcotest.test_case "off by default" `Quick test_off_by_default;
          Alcotest.test_case "accumulate and reset" `Quick
            test_counter_accumulates;
          Alcotest.test_case "gauge keeps max" `Quick test_gauge_max;
          Alcotest.test_case "make is idempotent" `Quick test_make_idempotent;
          Alcotest.test_case "dump is name-sorted" `Quick test_metrics_sorted;
          Alcotest.test_case "concurrent increments sum exactly" `Quick
            test_concurrent_increments;
          Alcotest.test_case "csv shape" `Quick test_csv_shape;
        ] );
      ( "bit-identity",
        [
          prop_exhaustive_counters;
          prop_pareto_counters;
          prop_deal_counters;
          Alcotest.test_case "campaign figure" `Slow test_campaign_counters;
          Alcotest.test_case "fault campaign" `Slow
            test_fault_campaign_counters;
          Alcotest.test_case "table1" `Slow test_table1_counters;
          Alcotest.test_case "hot paths actually count" `Slow
            test_counters_nonzero;
        ] );
      ( "traces",
        [
          Alcotest.test_case "chrome trace parses" `Quick
            test_trace_valid_json;
          Alcotest.test_case "span survives exceptions" `Quick
            test_span_records_on_exception;
          Alcotest.test_case "sim trace parses" `Quick
            test_sim_trace_valid_json;
        ] );
    ]
