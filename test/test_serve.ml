(* The serving layer: JSON round-trips, HTTP framing, the warm-engine
   cache, protocol semantics (CLI-diagnostic parity, byte-identical
   responses at any --jobs), and the server lifecycle — start, route,
   respond, reject malformed input, survive concurrent clients,
   stop/restart. See doc/serving.mld for the contract under test. *)

open Pipeline_model
module Json = Pipeline_serve.Json
module Http = Pipeline_serve.Http
module Cache = Pipeline_serve.Cache
module Protocol = Pipeline_serve.Protocol
module Server = Pipeline_serve.Server
module Ureg = Pipeline_registry

let with_jobs jobs f =
  let saved = Pipeline_util.Pool.jobs () in
  Pipeline_util.Pool.set_jobs jobs;
  Fun.protect ~finally:(fun () -> Pipeline_util.Pool.set_jobs saved) f

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let parse_ok text =
  match Json.of_string text with
  | Ok v -> v
  | Error msg -> Alcotest.failf "%S should parse, got: %s" text msg

let parse_err text =
  match Json.of_string text with
  | Ok _ -> Alcotest.failf "%S should be rejected" text
  | Error msg -> msg

let test_json_values () =
  Alcotest.(check bool) "null" true (parse_ok "null" = Json.Null);
  Alcotest.(check bool) "true" true (parse_ok "true" = Json.Bool true);
  Alcotest.(check bool) "int" true (parse_ok "42" = Json.Number 42.);
  Alcotest.(check bool) "negative exponent" true
    (parse_ok "-1.5e-3" = Json.Number (-0.0015));
  Alcotest.(check bool) "string escapes" true
    (parse_ok {|"a\"b\\c\nd"|} = Json.String "a\"b\\c\nd");
  Alcotest.(check bool) "raw UTF-8 passes through" true
    (parse_ok {|"😀"|} = Json.String "\xf0\x9f\x98\x80");
  Alcotest.(check bool) "escaped surrogate pair" true
    (parse_ok {|"😀"|} = Json.String "\xf0\x9f\x98\x80");
  Alcotest.(check bool) "nested" true
    (parse_ok {| {"a":[1,2],"b":{"c":null}} |}
    = Json.Obj
        [
          ("a", Json.List [ Json.Number 1.; Json.Number 2. ]);
          ("b", Json.Obj [ ("c", Json.Null) ]);
        ])

let test_json_rejects () =
  List.iter
    (fun text -> ignore (parse_err text))
    [
      "";
      "garbage";
      "{";
      "[1,]";
      "{\"a\":}";
      "{\"a\" 1}";
      "+1";
      "1.";
      ".5";
      "nul";
      "\"unterminated";
      "\"\x01\"" (* raw control byte *);
      {|"\ud800"|} (* unpaired high surrogate *);
      {|"\udc00"|} (* unpaired low surrogate *);
      {|"\ux111"|};
      "1e999" (* overflows to infinity: not a finite JSON number *);
      "nan";
      "[1] []" (* trailing bytes *);
      "{\"a\":1}x";
    ]

let test_json_print_deterministic () =
  let v =
    Json.Obj
      [
        ("b", Json.Number 1.5);
        ("a", Json.List [ Json.Null; Json.Bool false; Json.String "x\ny" ]);
      ]
  in
  let printed = Json.to_string v in
  Alcotest.(check string)
    "insertion order, compact" {|{"b":1.5,"a":[null,false,"x\ny"]}|} printed;
  Alcotest.(check string) "print is stable" printed (Json.to_string v)

let tricky_floats =
  [
    0.; -0.; 1.; -1.; 0.1; 1. /. 3.; 1e-308; 4e-324; max_float; 1e15 -. 1.;
    1e15; 12345678901234567.; 6.5; 0.30000000000000004; Float.pi;
  ]

let test_number_round_trip () =
  List.iter
    (fun f ->
      let s = Json.number_to_string f in
      match float_of_string_opt s with
      | None -> Alcotest.failf "%h printed as unparseable %S" f s
      | Some g ->
        if not (Int64.equal (Int64.bits_of_float f) (Int64.bits_of_float g))
        then Alcotest.failf "%h -> %S -> %h: not bit-identical" f s g)
    tricky_floats

let prop_number_round_trip =
  Helpers.qtest ~count:500 "random floats round-trip bit-identically"
    QCheck2.Gen.float (fun f ->
      QCheck2.assume (Float.is_finite f);
      let s = Json.number_to_string f in
      match Json.of_string s with
      | Ok (Json.Number g) ->
        Int64.equal (Int64.bits_of_float f) (Int64.bits_of_float g)
      | _ -> false)

(* A small sized generator of JSON values (atoms at the leaves). *)
let json_gen =
  let open QCheck2.Gen in
  let atom =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map
          (fun f -> Json.Number (if Float.is_finite f then f else 0.))
          float;
        map (fun s -> Json.String s) string_printable;
      ]
  in
  sized @@ fix (fun self n ->
      if n <= 0 then atom
      else
        oneof
          [
            atom;
            map (fun l -> Json.List l) (list_size (0 -- 3) (self (n / 2)));
            map
              (fun kvs -> Json.Obj kvs)
              (list_size (0 -- 3)
                 (pair (string_size ~gen:(char_range 'a' 'z') (1 -- 5))
                    (self (n / 2))));
          ])

let prop_json_round_trip =
  Helpers.qtest ~count:300 "print/parse round-trips values" json_gen (fun v ->
      match Json.of_string (Json.to_string v) with
      | Ok v' -> Json.to_string v = Json.to_string v'
      | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* HTTP framing                                                        *)
(* ------------------------------------------------------------------ *)

(* Feed a raw byte string to [read_request] through a socketpair. *)
let read_raw ?max_body text =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () ->
      let len = String.length text in
      let written = Unix.write_substring a text 0 len in
      Alcotest.(check int) "request fits the socket buffer" len written;
      Unix.shutdown a Unix.SHUTDOWN_SEND;
      Http.read_request ?max_body b)

let test_http_parses_request () =
  match
    read_raw
      "POST /solve HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\n\
       Content-Length: 4\r\n\r\n{\"a\"extra"
  with
  | Ok req ->
    Alcotest.(check string) "meth" "POST" req.Http.meth;
    Alcotest.(check string) "path" "/solve" req.Http.path;
    Alcotest.(check string) "body honours Content-Length" "{\"a\"" req.Http.body;
    Alcotest.(check (option string))
      "header lookup is case-insensitive" (Some "application/json")
      (Http.header req "CONTENT-TYPE")
  | Error _ -> Alcotest.fail "well-formed request rejected"

let test_http_no_body () =
  match read_raw "GET /health HTTP/1.1\r\nHost: x\r\n\r\n" with
  | Ok req ->
    Alcotest.(check string) "meth" "GET" req.Http.meth;
    Alcotest.(check string) "empty body" "" req.Http.body
  | Error _ -> Alcotest.fail "GET without body rejected"

let test_http_malformed () =
  let expect_malformed text =
    match read_raw text with
    | Error (Http.Malformed _) -> ()
    | Error (Http.Too_large _) -> Alcotest.failf "%S: Too_large, expected Malformed" text
    | Error Http.Closed -> Alcotest.failf "%S: Closed, expected Malformed" text
    | Error Http.Timeout -> Alcotest.failf "%S: Timeout, expected Malformed" text
    | Ok _ -> Alcotest.failf "%S accepted" text
  in
  expect_malformed "BLAH\r\n\r\n";
  expect_malformed "GET /x SMTP/1.0\r\n\r\n";
  expect_malformed "GET /x HTTP/1.1\r\nno-colon-header\r\n\r\n";
  expect_malformed "GET /x HTTP/1.1\r\nContent-Length: banana\r\n\r\n";
  expect_malformed "GET /x HTTP/1.1\r\nContent-Length: -4\r\n\r\n"

let test_http_limits () =
  (match read_raw ("GET /" ^ String.make 20_000 'a' ^ " HTTP/1.1\r\n\r\n") with
  | Error (Http.Too_large _) -> ()
  | _ -> Alcotest.fail "20 KB header block accepted");
  (match
     read_raw ~max_body:100 "POST /x HTTP/1.1\r\nContent-Length: 101\r\n\r\n"
   with
  | Error (Http.Too_large _) -> ()
  | _ -> Alcotest.fail "over-cap body accepted");
  match read_raw "GET /x HTTP/1.1\r\nHost" (* peer gone mid-header *) with
  | Error Http.Closed -> ()
  | _ -> Alcotest.fail "truncated request should be Closed"

(* ------------------------------------------------------------------ *)
(* Cache                                                               *)
(* ------------------------------------------------------------------ *)

let test_fingerprint_injective () =
  let distinct =
    [
      Platform.comm_homogeneous ~bandwidth:10. [| 2.; 4.; 1. |];
      Platform.comm_homogeneous ~bandwidth:10.5 [| 2.; 4.; 1. |];
      Platform.comm_homogeneous ~bandwidth:10. [| 2.; 4. |];
      Platform.comm_homogeneous ~bandwidth:10. [| 4.; 2.; 1. |];
      Platform.comm_homogeneous ~io_bandwidth:5. ~bandwidth:10. [| 2.; 4.; 1. |];
      Platform.fully_heterogeneous
        ~bandwidths:[| [| 0.; 5. |]; [| 5.; 0. |] |]
        [| 2.; 4. |];
      Platform.fully_heterogeneous
        ~bandwidths:[| [| 0.; 7. |]; [| 7.; 0. |] |]
        [| 2.; 4. |];
    ]
  in
  let fps = List.map Cache.platform_fingerprint distinct in
  let sorted = List.sort_uniq compare fps in
  Alcotest.(check int)
    "distinct platforms give distinct fingerprints" (List.length fps)
    (List.length sorted);
  let p = Platform.comm_homogeneous ~bandwidth:10. [| 2.; 4.; 1. |] in
  Alcotest.(check string)
    "equal platforms give equal fingerprints"
    (Cache.platform_fingerprint p)
    (Cache.platform_fingerprint
       (Platform.comm_homogeneous ~bandwidth:10. [| 2.; 4.; 1. |]))

let prop_fingerprint_separates =
  Helpers.qtest ~count:200 "random instance pairs: fingerprint = equality"
    QCheck2.Gen.(pair (0 -- 1_000_000) (0 -- 1_000_000))
    (fun (s1, s2) ->
      let i1 = Helpers.random_instance s1 and i2 = Helpers.random_instance s2 in
      let same_fp =
        Cache.platform_fingerprint i1.Instance.platform
        = Cache.platform_fingerprint i2.Instance.platform
        && Cache.app_fingerprint i1.Instance.app
           = Cache.app_fingerprint i2.Instance.app
      in
      let same_value =
        Platform.equal i1.Instance.platform i2.Instance.platform
        && Application.equal i1.Instance.app i2.Instance.app
      in
      same_fp = same_value)

let test_cache_hits_and_canonicalisation () =
  let cache = Cache.create () in
  let fresh () = Helpers.small_instance () in
  let l1 = Cache.canonical cache (fresh ()) in
  Alcotest.(check bool) "first lookup misses" false l1.Cache.platform_hit;
  let l2 = Cache.canonical cache (fresh ()) in
  Alcotest.(check bool) "second lookup hits platform" true l2.Cache.platform_hit;
  Alcotest.(check bool) "second lookup hits app" true l2.Cache.app_hit;
  Alcotest.(check bool) "platform canonicalised to the representative" true
    (l2.Cache.instance.Instance.platform == l1.Cache.instance.Instance.platform);
  (* Physical equality of both halves is what makes Cost.get hit. *)
  Alcotest.(check bool) "application canonicalised to the representative" true
    (l2.Cache.instance.Instance.app == l1.Cache.instance.Instance.app);
  (* Same platform, different application: platform hit, app miss. *)
  let other_app =
    Instance.make
      (Application.make ~deltas:[| 1.; 1. |] [| 3. |])
      (Helpers.small_platform ())
  in
  let l3 = Cache.canonical cache other_app in
  Alcotest.(check bool) "platform hit" true l3.Cache.platform_hit;
  Alcotest.(check bool) "app miss" false l3.Cache.app_hit;
  let s = Cache.stats cache in
  Alcotest.(check int) "platform hits" 2 s.Cache.platform_hits;
  Alcotest.(check int) "platform misses" 1 s.Cache.platform_misses;
  Alcotest.(check int) "app hits" 1 s.Cache.app_hits;
  Alcotest.(check int) "app misses" 2 s.Cache.app_misses

let test_cache_eviction () =
  let cache = Cache.create () in
  let inst b =
    Instance.make (Helpers.small_app ())
      (Platform.comm_homogeneous ~bandwidth:(float_of_int b) [| 2.; 4.; 1. |])
  in
  (* 64 platform entries fill the cache; re-touching bandwidth 1 makes
     bandwidth 2 the LRU tail, which the 65th platform evicts. *)
  for b = 1 to 64 do
    ignore (Cache.canonical cache (inst b))
  done;
  Alcotest.(check int) "64 entries fit" 0 (Cache.stats cache).Cache.evictions;
  ignore (Cache.canonical cache (inst 1));
  ignore (Cache.canonical cache (inst 65));
  Alcotest.(check int) "one eviction" 1 (Cache.stats cache).Cache.evictions;
  let l1 = Cache.canonical cache (inst 1) in
  Alcotest.(check bool) "re-touched entry survives" true l1.Cache.platform_hit;
  let l2 = Cache.canonical cache (inst 2) in
  Alcotest.(check bool) "LRU tail went first" false l2.Cache.platform_hit

let test_cache_app_eviction () =
  let cache = Cache.create () in
  let platform = Helpers.small_platform () in
  let inst k =
    Instance.make (Application.make ~deltas:[| 1.; 1. |] [| float_of_int k |]) platform
  in
  (* 16 applications fit under one platform; re-touching application 1
     makes application 2 the LRU tail, which the 17th drops. *)
  for k = 1 to 16 do
    ignore (Cache.canonical cache (inst k))
  done;
  ignore (Cache.canonical cache (inst 1));
  ignore (Cache.canonical cache (inst 17));
  let l1 = Cache.canonical cache (inst 1) in
  Alcotest.(check bool) "re-touched application survives" true l1.Cache.app_hit;
  let l2 = Cache.canonical cache (inst 2) in
  Alcotest.(check bool) "platform still cached" true l2.Cache.platform_hit;
  Alcotest.(check bool) "LRU application went first" false l2.Cache.app_hit;
  Alcotest.(check int) "no platform eviction" 0 (Cache.stats cache).Cache.evictions

(* The cache builds no engine itself: a repeated request reaches the
   engine its first parse built because both representative halves are
   physically equal, which is what Cost.get keys on. *)
let test_cache_reuses_engine () =
  let cache = Cache.create () in
  let engine () =
    let l = Cache.canonical cache (Helpers.small_instance ()) in
    Cost.get l.Cache.instance.Instance.app l.Cache.instance.Instance.platform
  in
  let builds () = (Cost.cache_stats ()).Cost.engine_builds in
  let first = engine () in
  let before = builds () in
  let second = engine () in
  Alcotest.(check bool) "same engine" true (first == second);
  Alcotest.(check int) "no engine built" 0 (builds () - before)

(* ------------------------------------------------------------------ *)
(* Protocol                                                            *)
(* ------------------------------------------------------------------ *)

let request ?(meth = "POST") ?(path = "/solve") body =
  { Http.meth; path; headers = [ ("content-type", "application/json") ]; body }

let get path = request ~meth:"GET" ~path ""

let small_solve_body ?heuristic ?(threshold = ("period", 9.)) () =
  let name, value = threshold in
  Json.to_string
    (Json.Obj
       ([
          ( "instance",
            Json.Obj
              [
                ( "works",
                  Json.List [ Json.Number 4.; Json.Number 8.; Json.Number 2.; Json.Number 6. ] );
                ( "deltas",
                  Json.List
                    [
                      Json.Number 10.; Json.Number 20.; Json.Number 30.;
                      Json.Number 20.; Json.Number 10.;
                    ] );
                ( "platform",
                  Json.Obj
                    [
                      ( "speeds",
                        Json.List [ Json.Number 2.; Json.Number 4.; Json.Number 1. ] );
                      ("bandwidth", Json.Number 10.);
                    ] );
              ] );
          (name, Json.Number value);
        ]
       @ match heuristic with None -> [] | Some h -> [ ("heuristic", Json.String h) ]))

let error_of body =
  match Json.of_string body with
  | Ok (Json.Obj [ ("error", Json.String msg) ]) -> msg
  | _ -> Alcotest.failf "not a one-line error body: %s" body

let test_protocol_health_and_metrics () =
  let p = Protocol.create () in
  let status, ctype, body = Protocol.handle p (get "/health") in
  Alcotest.(check int) "health 200" 200 status;
  Alcotest.(check string) "health is json" "application/json" ctype;
  Alcotest.(check string)
    "health body" {|{"status":"ok","service":"pipeline-sched","version":"1.0.0"}|}
    body;
  let status, ctype, body = Protocol.handle p (get "/metrics") in
  Alcotest.(check int) "metrics 200" 200 status;
  Alcotest.(check string) "metrics exposition type" "text/plain; version=0.0.4" ctype;
  let has_line l = List.mem l (String.split_on_char '\n' body) in
  Alcotest.(check bool) "serve counter registered" true
    (has_line "# TYPE serve_requests counter")

let test_protocol_solve () =
  let p = Protocol.create () in
  let status, _, body =
    Protocol.handle p (request (small_solve_body ~heuristic:"h1-sp-mono-p" ()))
  in
  Alcotest.(check int) "solve 200" 200 status;
  let v = parse_ok body in
  (match Json.member "results" v with
  | Some (Json.List [ row ]) ->
    Alcotest.(check (option string))
      "row id" (Some "h1-sp-mono-p")
      (Option.bind (Json.member "id" row) Json.to_string_opt);
    Alcotest.(check (option bool))
      "feasible" (Some true)
      (Option.bind (Json.member "feasible" row) Json.to_bool)
  | _ -> Alcotest.failf "unexpected results shape: %s" body)

(* Only /pareto and exact /solve read candidate periods, and they build
   them through the engine on first use: admitting a platform for a
   heuristic /solve builds none. *)
let test_cache_builds_no_candidates () =
  with_jobs 1 @@ fun () ->
  let p = Protocol.create () in
  let body = small_solve_body ~heuristic:"h1-sp-mono-p" () in
  let builds () = (Cost.cache_stats ()).Cost.candidate_builds in
  let handle path =
    let before = builds () in
    let status, _, _ = Protocol.handle p (request ~path body) in
    Alcotest.(check int) (path ^ " 200") 200 status;
    builds () - before
  in
  Alcotest.(check int) "heuristic /solve on a new platform" 0 (handle "/solve");
  Alcotest.(check int) "first /pareto builds the set" 1 (handle "/pareto");
  Alcotest.(check int) "second /pareto reuses it" 0 (handle "/pareto")

let test_protocol_own_cache () =
  let p1 = Protocol.create () and p2 = Protocol.create () in
  let body = small_solve_body ~heuristic:"h1-sp-mono-p" () in
  let solve p =
    let status, _, _ = Protocol.handle p (request body) in
    Alcotest.(check int) "200" 200 status
  in
  solve p1;
  Alcotest.(check int) "first protocol admitted the platform" 1
    (Protocol.cache_stats p1).Cache.platform_misses;
  let s2 = Protocol.cache_stats p2 in
  Alcotest.(check int) "second protocol untouched" 0
    (s2.Cache.platform_hits + s2.Cache.platform_misses);
  (* The same request misses in the second protocol's own cache. *)
  solve p2;
  Alcotest.(check int) "second protocol misses" 1
    (Protocol.cache_stats p2).Cache.platform_misses

let test_protocol_solve_all_rows () =
  let p = Protocol.create () in
  let status, _, body = Protocol.handle p (request (small_solve_body ())) in
  Alcotest.(check int) "solve 200" 200 status;
  match Json.member "results" (parse_ok body) with
  | Some (Json.List rows) ->
    let expected =
      List.filter (fun (i : Ureg.info) -> i.Ureg.kind = Ureg.Period_fixed) Ureg.paper
    in
    Alcotest.(check int)
      "one row per period-fixed paper heuristic" (List.length expected)
      (List.length rows)
  | _ -> Alcotest.failf "unexpected results shape: %s" body

(* The two surfaces share their diagnostics: the serve 400 body is
   exactly the registry's resolve error (which the CLI prints verbatim
   before exit 2). *)
let test_protocol_diagnostic_parity () =
  let p = Protocol.create () in
  let expect_echo ~heuristic ~kind =
    let status, _, body =
      Protocol.handle p (request (small_solve_body ~heuristic ()))
    in
    Alcotest.(check int) (heuristic ^ " is 400") 400 status;
    match Ureg.resolve ?kind heuristic with
    | Error expected -> Alcotest.(check string) "wording" expected (error_of body)
    | Ok _ -> Alcotest.fail "registry accepted what serve rejected"
  in
  expect_echo ~heuristic:"nope" ~kind:None;
  (* h5 is latency-fixed; the request fixes the period. *)
  expect_echo ~heuristic:"h5-sp-mono-l" ~kind:(Some Ureg.Period_fixed)

let test_protocol_rejects () =
  let p = Protocol.create () in
  let expect_status ?(meth = "POST") ?(path = "/solve") status body =
    let got, _, reply = Protocol.handle p (request ~meth ~path body) in
    Alcotest.(check int) (Printf.sprintf "%s %s -> %d" meth path status) status got;
    ignore (error_of reply)
  in
  expect_status 400 "";
  expect_status 400 "garbage";
  expect_status 400 "[1,2,3]" (* instance missing *);
  expect_status 400 {|{"instance":{"works":[1],"deltas":[1,1]}}|} (* no platform *);
  expect_status 400
    {|{"instance":{"works":[1],"deltas":[1,1],"platform":{"speeds":[1],"bandwidth":10}}}|}
    (* neither period nor latency *);
  expect_status 400
    {|{"instance":{"works":[1],"deltas":[1,1],"platform":{"speeds":[1],"bandwidth":10}},"period":1,"latency":1}|};
  expect_status 400
    {|{"instance":{"works":[-1],"deltas":[1,1],"platform":{"speeds":[1],"bandwidth":10}},"period":1}|}
    (* negative work: the model's own validation *);
  expect_status 400
    {|{"instance":{"works":[1],"deltas":[1,1],"platform":{"speeds":[1],"bandwidth":0}},"period":1}|}
    (* zero bandwidth *);
  expect_status 400
    {|{"instance":{"works":[1],"deltas":[1,1,1],"platform":{"speeds":[1],"bandwidth":10}},"period":1}|}
    (* deltas length mismatch *);
  expect_status ~path:"/nope" 404 "";
  expect_status ~meth:"PUT" 405 (small_solve_body ());
  expect_status ~meth:"POST" ~path:"/health" 405 "";
  (* A mapping that does not fit: Cost's own wording, as the CLI's eval
     and simulate print it (test/cli_bad_mapping.sh). *)
  let got, _, reply =
    Protocol.handle p
      (request ~path:"/simulate"
         {|{"instance":{"works":[4,8,2,6],"deltas":[10,20,30,20,10],"platform":{"speeds":[2,4,1],"bandwidth":10}},"mapping":"1-2:0 3-4:7"}|})
  in
  Alcotest.(check int) "mapping outside the platform -> 400" 400 got;
  Alcotest.(check string) "Cost's wording"
    "Cost: mapping references processors outside the platform" (error_of reply)

let test_protocol_simulate_and_pareto () =
  let p = Protocol.create () in
  let base = parse_ok (small_solve_body ()) in
  let with_fields fields =
    match base with
    | Json.Obj members -> Json.to_string (Json.Obj (members @ fields))
    | _ -> assert false
  in
  let status, _, body =
    Protocol.handle p
      (request ~path:"/simulate" (with_fields [ ("datasets", Json.Number 20.) ]))
  in
  Alcotest.(check int) "simulate 200" 200 status;
  (match Json.member "stats" (parse_ok body) with
  | Some stats ->
    Alcotest.(check (option int))
      "all datasets complete" (Some 20)
      (Option.bind (Json.member "completed" stats) Json.to_int)
  | None -> Alcotest.failf "no stats in %s" body);
  let status, _, body =
    Protocol.handle p
      (request ~path:"/simulate" (with_fields [ ("datasets", Json.Number 0.) ]))
  in
  Alcotest.(check int) "datasets < 1 is 400" 400 status;
  ignore (error_of body);
  let status, _, body = Protocol.handle p (request ~path:"/pareto" (small_solve_body ())) in
  Alcotest.(check int) "pareto 200" 200 status;
  match Json.member "points" (parse_ok body) with
  | Some (Json.List (_ :: _)) -> ()
  | _ -> Alcotest.failf "empty pareto front: %s" body

(* /simulate refuses more than 10^6 (interval, data set) pairs before
   simulating, and the daemon keeps serving: a two-interval mapping at
   500 001 data sets is 1 000 002 pairs. *)
let test_protocol_simulate_bound () =
  let p = Protocol.create () in
  let simulate datasets =
    let body =
      match parse_ok (small_solve_body ()) with
      | Json.Obj members ->
        Json.to_string
          (Json.Obj
             (members
             @ [
                 ("mapping", Json.String "1-2:1 3-4:0");
                 ("datasets", Json.Number (float_of_int datasets));
               ]))
      | _ -> assert false
    in
    Protocol.handle p (request ~path:"/simulate" body)
  in
  let status, _, body = simulate 500_001 in
  Alcotest.(check int) "over the bound is 400" 400 status;
  Alcotest.(check string) "names the pair count and the bound"
    "simulation of 1000002 (interval, data set) pairs exceeds the bound of 1000000"
    (error_of body);
  let status, _, _ = simulate 20 in
  Alcotest.(check int) "next simulate is 200" 200 status

(* Fully heterogeneous bodies on every POST endpoint (DESIGN.md §13):
   /solve with the exact exhaustive row, /pareto via the exhaustive
   oracle, /simulate both with an explicit mapping and through the het
   splitting default. *)
let het_instance_json =
  let nums l = Json.List (List.map (fun v -> Json.Number v) l) in
  Json.Obj
    [
      ("works", nums [ 4.; 8.; 2.; 6. ]);
      ("deltas", nums [ 10.; 20.; 30.; 20.; 10. ]);
      ( "platform",
        Json.Obj
          [
            ("speeds", nums [ 1.; 2.; 3. ]);
            ( "bandwidths",
              Json.List
                [ nums [ 0.; 2.; 5. ]; nums [ 2.; 0.; 3. ]; nums [ 5.; 3.; 0. ] ]
            );
            ("io_bandwidths", nums [ 10.; 10.; 10. ]);
          ] );
    ]

let het_body fields =
  Json.to_string (Json.Obj (("instance", het_instance_json) :: fields))

let het_library_instance () =
  let app =
    Application.make ~deltas:[| 10.; 20.; 30.; 20.; 10. |] [| 4.; 8.; 2.; 6. |]
  in
  let platform =
    Platform.fully_heterogeneous ~io_bandwidths:[| 10.; 10.; 10. |]
      ~bandwidths:[| [| 0.; 2.; 5. |]; [| 2.; 0.; 3. |]; [| 5.; 3.; 0. |] |]
      [| 1.; 2.; 3. |]
  in
  Instance.make app platform

let test_protocol_het_solve_exact () =
  let p = Protocol.create () in
  let status, _, body =
    Protocol.handle p
      (request (het_body [ ("period", Json.Number 9.); ("exact", Json.Bool true) ]))
  in
  Alcotest.(check int) "het solve 200" 200 status;
  match Json.member "results" (parse_ok body) with
  | Some (Json.List rows) ->
    let ids =
      List.filter_map (fun r -> Option.bind (Json.member "id" r) Json.to_string_opt) rows
    in
    Alcotest.(check (list string))
      "het splitting then the exact oracle" [ "het-splitting"; "exact" ] ids;
    let exact = List.nth rows 1 in
    (match
       Pipeline_optimal.Exhaustive.min_latency_under_period
         (het_library_instance ()) ~period:9.
     with
    | None -> Alcotest.fail "oracle infeasible where serve answered"
    | Some sol ->
      Alcotest.(check (option (float 0.)))
        "exact period bitwise"
        (Some sol.Pipeline_core.Solution.period)
        (Option.bind (Json.member "period" exact) Json.to_float);
      Alcotest.(check (option (float 0.)))
        "exact latency bitwise"
        (Some sol.Pipeline_core.Solution.latency)
        (Option.bind (Json.member "latency" exact) Json.to_float))
  | _ -> Alcotest.failf "unexpected results shape: %s" body

let test_protocol_het_pareto () =
  let p = Protocol.create () in
  let status, _, body = Protocol.handle p (request ~path:"/pareto" (het_body [])) in
  Alcotest.(check int) "het pareto 200" 200 status;
  let front = Pipeline_optimal.Exhaustive.pareto (het_library_instance ()) in
  match Json.member "points" (parse_ok body) with
  | Some (Json.List points) ->
    Alcotest.(check int) "front size" (List.length front) (List.length points);
    List.iteri
      (fun i point ->
        let sol = List.nth front i in
        Alcotest.(check (option (float 0.)))
          (Printf.sprintf "point %d period bitwise" i)
          (Some sol.Pipeline_core.Solution.period)
          (Option.bind (Json.member "period" point) Json.to_float))
      points
  | _ -> Alcotest.failf "unexpected points shape: %s" body

let test_protocol_het_simulate () =
  let p = Protocol.create () in
  let status, _, body =
    Protocol.handle p
      (request ~path:"/simulate"
         (het_body
            [ ("mapping", Json.String "1-4:2"); ("datasets", Json.Number 10.) ]))
  in
  Alcotest.(check int) "het simulate (explicit mapping) 200" 200 status;
  (match Json.member "stats" (parse_ok body) with
  | Some stats ->
    Alcotest.(check (option int))
      "all datasets complete" (Some 10)
      (Option.bind (Json.member "completed" stats) Json.to_int)
  | None -> Alcotest.failf "no stats in %s" body);
  (* No explicit mapping: the het splitting extension picks one, as on
     /solve. *)
  let status, _, body =
    Protocol.handle p
      (request ~path:"/simulate"
         (het_body [ ("period", Json.Number 9.); ("datasets", Json.Number 5.) ]))
  in
  Alcotest.(check int) "het simulate (default mapping) 200" 200 status;
  match Json.member "mapping" (parse_ok body) with
  | Some (Json.String _) -> ()
  | _ -> Alcotest.failf "no mapping in %s" body

let test_protocol_het_exact_guard () =
  (* Above the exhaustive oracle's enumeration guard, exact requests on
     fully-het platforms are a deliberate 400. *)
  let p = Protocol.create () in
  let n = 24 and procs = 12 in
  let nums l = Json.List (List.map (fun v -> Json.Number v) l) in
  let ones k = List.init k (fun _ -> 1.) in
  (* One fat link keeps the matrix genuinely heterogeneous. *)
  let bandwidths =
    Json.List
      (List.init procs (fun u ->
           nums
             (List.init procs (fun v ->
                  if u = v then 0. else if u + v = 1 then 3. else 2.))))
  in
  let instance =
    Json.Obj
      [
        ("works", nums (ones n));
        ("deltas", nums (ones (n + 1)));
        ( "platform",
          Json.Obj [ ("speeds", nums (ones procs)); ("bandwidths", bandwidths) ]
        );
      ]
  in
  let body fields = Json.to_string (Json.Obj (("instance", instance) :: fields)) in
  let status, _, reply =
    Protocol.handle p
      (request (body [ ("period", Json.Number 9.); ("exact", Json.Bool true) ]))
  in
  Alcotest.(check int) "oversized exact is 400" 400 status;
  Alcotest.(check bool) "names the guard" true
    (Str_find.contains (error_of reply) "too large for the exact solver");
  let status, _, reply = Protocol.handle p (request ~path:"/pareto" (body [])) in
  Alcotest.(check int) "oversized pareto is 400" 400 status;
  ignore (error_of reply)

let test_protocol_byte_identity () =
  let p = Protocol.create () in
  let solve () =
    let _, _, body = Protocol.handle p (request (small_solve_body ())) in
    body
  in
  let first = solve () in
  Alcotest.(check string) "cold vs warm cache" first (solve ());
  let jobs1 = with_jobs 1 solve in
  let jobs4 = with_jobs 4 solve in
  Alcotest.(check string) "jobs 1 vs jobs 4" jobs1 jobs4

(* The serve path against the library: same instance, same threshold,
   same heuristic => the response carries the same mapping and
   bit-identical objective values (rendered by the same float printer). *)
let prop_serve_matches_library =
  Helpers.qtest ~count:60 "serve solve == direct registry solve"
    QCheck2.Gen.(0 -- 1_000_000)
    (fun seed ->
      let inst = Helpers.random_instance seed in
      let threshold = Instance.single_proc_period inst *. 0.7 in
      let p = Protocol.create () in
      let body =
        Json.to_string
          (Json.Obj
             [
               ( "instance",
                 Json.Obj
                   [
                     ( "works",
                       Json.List
                         (Array.to_list
                            (Array.map (fun f -> Json.Number f)
                               (Application.works inst.Instance.app))) );
                     ( "deltas",
                       Json.List
                         (Array.to_list
                            (Array.map (fun f -> Json.Number f)
                               (Application.deltas inst.Instance.app))) );
                     ( "platform",
                       Json.Obj
                         [
                           ( "speeds",
                             Json.List
                               (Array.to_list
                                  (Array.map (fun f -> Json.Number f)
                                     (Platform.speeds inst.Instance.platform))) );
                           ("bandwidth", Json.Number 10.);
                         ] );
                   ] );
               ("period", Json.Number threshold);
             ])
      in
      let status, _, reply = Protocol.handle p (request body) in
      if status <> 200 then false
      else
        match Json.member "results" (parse_ok reply) with
        | Some (Json.List rows) ->
          let reference =
            List.filter
              (fun (i : Ureg.info) -> i.Ureg.kind = Ureg.Period_fixed)
              Ureg.paper
          in
          List.length rows = List.length reference
          && List.for_all2
               (fun row (info : Ureg.info) ->
                 match info.Ureg.solve inst ~threshold with
                 | None ->
                   Option.bind (Json.member "feasible" row) Json.to_bool
                   = Some false
                 | Some o ->
                   Option.bind (Json.member "mapping" row) Json.to_string_opt
                   = Some (Deal_mapping.to_string o.Ureg.mapping)
                   && (match Json.member "period" row with
                      | Some (Json.Number f) ->
                        Json.number_to_string f
                        = Json.number_to_string o.Ureg.period
                      | _ -> false)
                   && match Json.member "latency" row with
                      | Some (Json.Number f) ->
                        Json.number_to_string f
                        = Json.number_to_string o.Ureg.latency
                      | _ -> false)
               rows reference
        | _ -> false)

(* ------------------------------------------------------------------ *)
(* Server lifecycle                                                    *)
(* ------------------------------------------------------------------ *)

let with_server ?max_body f =
  let protocol = Protocol.create () in
  let server = Server.start ?max_body ~port:0 protocol in
  Fun.protect ~finally:(fun () -> Server.stop server) (fun () -> f (Server.port server))

let expect_ok label = function
  | Ok (status, body) -> (status, body)
  | Error msg -> Alcotest.failf "%s: transport error %s" label msg

let test_server_routes () =
  with_server (fun port ->
      let status, body = expect_ok "health" (Http.get ~port "/health") in
      Alcotest.(check int) "health 200" 200 status;
      Alcotest.(check bool) "health body" true
        (body = {|{"status":"ok","service":"pipeline-sched","version":"1.0.0"}|});
      let status, _ = expect_ok "solve" (Http.post ~port "/solve" ~body:(small_solve_body ())) in
      Alcotest.(check int) "solve 200" 200 status;
      let status, _ = expect_ok "404" (Http.get ~port "/nope") in
      Alcotest.(check int) "404" 404 status;
      let status, _ = expect_ok "400" (Http.post ~port "/solve" ~body:"garbage") in
      Alcotest.(check int) "garbage 400" 400 status)

(* Raw socket: a malformed request line still gets an HTTP response. *)
let test_server_malformed_request () =
  with_server (fun port ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
          let text = "BLAH\r\n\r\n" in
          ignore (Unix.write_substring fd text 0 (String.length text));
          let buf = Bytes.create 1024 in
          let got = Unix.read fd buf 0 1024 in
          let reply = Bytes.sub_string buf 0 got in
          Alcotest.(check bool) "400 on malformed request line" true
            (String.length reply >= 12 && String.sub reply 0 12 = "HTTP/1.1 400")))

let test_server_oversized_body () =
  with_server ~max_body:100 (fun port ->
      let status, _ =
        expect_ok "413" (Http.post ~port "/solve" ~body:(String.make 200 'x'))
      in
      Alcotest.(check int) "oversized body is 413" 413 status)

let test_server_concurrent_clients () =
  with_server (fun port ->
      let results = Array.make 8 (-1) in
      let threads =
        List.init 8 (fun i ->
            Thread.create
              (fun () ->
                let r =
                  if i mod 2 = 0 then Http.get ~port "/health"
                  else Http.post ~port "/solve" ~body:(small_solve_body ())
                in
                match r with Ok (status, _) -> results.(i) <- status | Error _ -> ())
              ())
      in
      List.iter Thread.join threads;
      Array.iteri
        (fun i status ->
          Alcotest.(check int) (Printf.sprintf "client %d got 200" i) 200 status)
        results)

(* A client that promises a body, sends less of it and then resets the
   connection (SO_LINGER 0 turns close into an RST) fails the daemon's
   read with ECONNRESET. That must end this one connection only: the
   next /solve is answered, within a deadline so that a dead accept
   thread fails the test instead of hanging it. *)
let test_server_reset_client () =
  with_server (fun port ->
      let connect () =
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        fd
      in
      let body = small_solve_body () in
      let reset = connect () in
      let head =
        Printf.sprintf
          "POST /solve HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: %d\r\n\r\n"
          (String.length body + 100)
      in
      let text = head ^ body in
      ignore (Unix.write_substring reset text 0 (String.length text));
      Unix.setsockopt_optint reset Unix.SO_LINGER (Some 0);
      Unix.close reset;
      let fd = connect () in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.setsockopt_float fd Unix.SO_RCVTIMEO 2.;
          let text =
            Printf.sprintf
              "POST /solve HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: %d\r\n\r\n%s"
              (String.length body) body
          in
          ignore (Unix.write_substring fd text 0 (String.length text));
          let buf = Bytes.create 1024 in
          match Unix.read fd buf 0 (Bytes.length buf) with
          | got ->
            let reply = Bytes.sub_string buf 0 got in
            Alcotest.(check bool) "the next /solve gets a 200" true
              (String.length reply >= 12 && String.sub reply 0 12 = "HTTP/1.1 200")
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
            Alcotest.fail "no answer within 2 s after a client reset"))

(* A request head without the blank line that ends it: a client that
   sends this and goes quiet has stalled. *)
let partial_head = "GET /health HTTP/1.1\r\nHost: x\r\n"

(* A connected client socket that has sent [text]. *)
let client port text =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  ignore (Unix.write_substring fd text 0 (String.length text));
  fd

(* Everything the server sends on [fd] until it closes, or what arrived
   before a 3 s receive timeout. *)
let read_reply fd =
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 3.;
  let acc = Buffer.create 256 and buf = Bytes.create 1024 in
  let rec drain () =
    match Unix.read fd buf 0 (Bytes.length buf) with
    | 0 -> ()
    | got ->
      Buffer.add_subbytes acc buf 0 got;
      drain ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  in
  drain ();
  Buffer.contents acc

(* The stalled client holds the sequential accept loop only until the
   request deadline: the healthy client behind it is answered within
   3 s, and the stalled one gets a 408. *)
let test_server_stalled_client () =
  with_server (fun port ->
      let stalled = client port partial_head in
      Fun.protect
        ~finally:(fun () -> try Unix.close stalled with Unix.Unix_error _ -> ())
        (fun () ->
          let t0 = Unix.gettimeofday () in
          let healthy = client port (partial_head ^ "\r\n") in
          let reply =
            Fun.protect
              ~finally:(fun () -> try Unix.close healthy with Unix.Unix_error _ -> ())
              (fun () -> read_reply healthy)
          in
          let elapsed = Unix.gettimeofday () -. t0 in
          Alcotest.(check bool) "healthy client gets a 200" true
            (String.starts_with ~prefix:"HTTP/1.1 200" reply);
          Alcotest.(check bool)
            (Printf.sprintf "answered within 3 s (took %.2f s)" elapsed)
            true (elapsed < 3.);
          let reply = read_reply stalled in
          Alcotest.(check bool) "stalled client gets a 408" true
            (String.starts_with ~prefix:"HTTP/1.1 408" reply);
          Alcotest.(check bool) "408 body" true
            (Str_find.contains reply
               {|{"error":"request not received within 2 s"}|})))

(* A client that sends a complete fully-het /pareto and resets the
   connection (SO_LINGER 0) without reading the answer: the daemon's
   read or its write of the response fails. That must end this one
   connection only: the next GET /health is answered 200 within 3 s. *)
let test_server_hangup_mid_response () =
  with_server (fun port ->
      let body = het_body [] in
      let gone =
        client port
          (Printf.sprintf
             "POST /pareto HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: %d\r\n\r\n%s"
             (String.length body) body)
      in
      Unix.setsockopt_optint gone Unix.SO_LINGER (Some 0);
      Unix.close gone;
      let t0 = Unix.gettimeofday () in
      let healthy = client port (partial_head ^ "\r\n") in
      let reply =
        Fun.protect
          ~finally:(fun () -> try Unix.close healthy with Unix.Unix_error _ -> ())
          (fun () -> read_reply healthy)
      in
      let elapsed = Unix.gettimeofday () -. t0 in
      Alcotest.(check bool) "the next /health gets a 200" true
        (String.starts_with ~prefix:"HTTP/1.1 200" reply);
      Alcotest.(check bool)
        (Printf.sprintf "answered within 3 s (took %.2f s)" elapsed)
        true (elapsed < 3.))

(* Stop runs on its own thread, so a stop that never returns fails the
   test instead of hanging it. *)
let test_server_stop_while_stalled () =
  let server = Server.start ~port:0 (Protocol.create ()) in
  let stalled = client (Server.port server) partial_head in
  Fun.protect
    ~finally:(fun () -> try Unix.close stalled with Unix.Unix_error _ -> ())
    (fun () ->
      (* Let the accept loop (50 ms poll) pick the stalled client up. *)
      Thread.delay 0.2;
      let stopped = Atomic.make false in
      let t0 = Unix.gettimeofday () in
      ignore
        (Thread.create
           (fun () ->
             Server.stop server;
             Atomic.set stopped true)
           ());
      while (not (Atomic.get stopped)) && Unix.gettimeofday () -. t0 < 3. do
        Thread.delay 0.01
      done;
      Alcotest.(check bool) "stop returns within 3 s" true (Atomic.get stopped))

let test_server_stop_restart () =
  let protocol = Protocol.create () in
  let server = Server.start ~port:0 protocol in
  let port = Server.port server in
  let status, _ = expect_ok "first run" (Http.get ~port "/health") in
  Alcotest.(check int) "first server responds" 200 status;
  Server.stop server;
  Server.stop server (* idempotent *);
  (match Http.get ~port "/health" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "stopped server still answering");
  (* Same protocol state (the warm cache survives), fresh listener. *)
  let server = Server.start ~port:0 protocol in
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () ->
      let status, _ =
        expect_ok "restart" (Http.get ~port:(Server.port server) "/health")
      in
      Alcotest.(check int) "restarted server responds" 200 status)

(* Identical requests through the real socket path are byte-identical
   too (cold, then cache-warm). *)
let test_server_byte_identity () =
  with_server (fun port ->
      let body = small_solve_body () in
      let _, first = expect_ok "cold" (Http.post ~port "/solve" ~body) in
      let _, second = expect_ok "warm" (Http.post ~port "/solve" ~body) in
      Alcotest.(check string) "cold vs warm over HTTP" first second)

(* ------------------------------------------------------------------ *)
(* Fuzzing: every external input ends in an answer, never an exception *)
(* ------------------------------------------------------------------ *)

module Rng = Pipeline_util.Rng

let fuzz_tokens = [| "1e308"; "-1e308"; "nan"; "inf"; "["; "]"; "{"; "\""; ","; "-"; "\n" |]

(* One mutation of [s]: a byte flip, a deletion, an inserted token, a
   duplicated chunk or a truncation. Deletions and chunks are short, so
   that many mutants still parse and reach the code behind the parser. *)
let mutate rng s =
  let n = String.length s in
  let at () = Rng.int rng (n + 1) in
  let upto i m = Rng.int rng (min m (n - i) + 1) in
  let insert i piece = String.sub s 0 i ^ piece ^ String.sub s i (n - i) in
  match Rng.int rng 5 with
  | 0 when n > 0 ->
    let i = Rng.int rng n and bit = 1 lsl Rng.int rng 8 in
    String.mapi (fun k c -> if k = i then Char.chr (Char.code c lxor bit) else c) s
  | 1 ->
    let i = at () in
    let len = upto i 4 in
    String.sub s 0 i ^ String.sub s (i + len) (n - i - len)
  | 2 ->
    let i = at () in
    insert i fuzz_tokens.(Rng.int rng (Array.length fuzz_tokens))
  | 3 ->
    let i = at () in
    let chunk = String.sub s i (upto i 12) in
    insert (at ()) chunk
  | _ -> String.sub s 0 (at ())

(* One or two mutations of one of [seeds], drawn from a seeded Rng so
   that a failure prints the mutant itself. *)
let gen_mutant seeds =
  QCheck2.Gen.map
    (fun (k, seed) ->
      let rng = Rng.create seed in
      let rec go s m = if m = 0 then s else go (mutate rng s) (m - 1) in
      go seeds.(k) (1 + Rng.int rng 2))
    QCheck2.Gen.(pair (int_bound (Array.length seeds - 1)) (int_bound 1_000_000_000))

let fuzz ?(count = 2000) name seeds prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name ~print:(Printf.sprintf "%S") (gen_mutant seeds) prop)

let no_raise name seeds parse =
  fuzz (name ^ " never raises") seeds (fun text ->
      match parse text with
      | _ -> true
      | exception e -> QCheck2.Test.fail_reportf "raised %s" (Printexc.to_string e))

let no_500 path seeds =
  let p = Protocol.create () in
  fuzz ~count:1000 ("POST " ^ path ^ " never answers 500") seeds (fun body ->
      match Protocol.handle p (request ~path body) with
      | 500, _, reply -> QCheck2.Test.fail_reportf "500: %s" reply
      | _ -> true
      | exception e -> QCheck2.Test.fail_reportf "raised %s" (Printexc.to_string e))

(* Seed inputs: n <= 5 stages, p <= 3 processors. *)
let fuzz_tests =
  let with_fields body fields =
    match parse_ok body with
    | Json.Obj members -> Json.to_string (Json.Obj (members @ fields))
    | _ -> assert false
  in
  let solves =
    [|
      small_solve_body ();
      small_solve_body ~heuristic:"h3-3explo-bi" ();
      small_solve_body ~threshold:("latency", 40.) ();
      het_body [ ("period", Json.Number 9.); ("exact", Json.Bool true) ];
    |]
  in
  let simulates =
    [|
      with_fields (small_solve_body ())
        [ ("mapping", Json.String "1-2:1 3-4:0"); ("datasets", Json.Number 5.) ];
      het_body [ ("period", Json.Number 9.); ("datasets", Json.Number 5.) ];
    |]
  in
  let instances =
    [|
      Instance_io.to_string (Helpers.small_instance ());
      Instance_io.to_string (het_library_instance ());
    |]
  in
  let arrivals = [| Pipeline_stream.Arrival_trace.to_csv [| 0.; 0.5; 1.25; 3. |] |] in
  let churn =
    [|
      Pipeline_stream.Churn.to_csv
        [
          { at = 1.; proc = 0; kind = Crash };
          { at = 2.; proc = 0; kind = Recover };
          { at = 3.; proc = 1; kind = Speed 0.5 };
          { at = 4.; proc = 2; kind = Join };
        ];
    |]
  in
  [
    no_raise "Json.of_string" (Array.concat [ solves; simulates ]) Json.of_string;
    no_raise "Instance_io.of_string" instances Instance_io.of_string;
    no_raise "Mapping_io.of_string" [| "1-2:1 3-4:0"; "1:0 2-3:2 4-5:1" |] Mapping_io.of_string;
    no_raise "Arrival_trace.of_csv_string" arrivals Pipeline_stream.Arrival_trace.of_csv_string;
    no_raise "Churn.of_csv_string" churn Pipeline_stream.Churn.of_csv_string;
    no_500 "/solve" solves;
    no_500 "/pareto" [| small_solve_body (); het_body [] |];
    no_500 "/simulate" simulates;
  ]

let () =
  Alcotest.run "serve"
    [
      ( "json",
        [
          Alcotest.test_case "values parse" `Quick test_json_values;
          Alcotest.test_case "malformed rejected" `Quick test_json_rejects;
          Alcotest.test_case "printer deterministic" `Quick
            test_json_print_deterministic;
          Alcotest.test_case "tricky floats round-trip" `Quick
            test_number_round_trip;
          prop_number_round_trip;
          prop_json_round_trip;
        ] );
      ( "http",
        [
          Alcotest.test_case "parses request" `Quick test_http_parses_request;
          Alcotest.test_case "GET without body" `Quick test_http_no_body;
          Alcotest.test_case "malformed framing" `Quick test_http_malformed;
          Alcotest.test_case "size limits" `Quick test_http_limits;
        ] );
      ( "cache",
        [
          Alcotest.test_case "fingerprints injective" `Quick
            test_fingerprint_injective;
          prop_fingerprint_separates;
          Alcotest.test_case "hit/miss and canonicalisation" `Quick
            test_cache_hits_and_canonicalisation;
          Alcotest.test_case "LRU eviction" `Quick test_cache_eviction;
          Alcotest.test_case "application LRU per platform" `Quick
            test_cache_app_eviction;
          Alcotest.test_case "a repeated request reuses its engine" `Quick
            test_cache_reuses_engine;
          Alcotest.test_case "a heuristic /solve builds no candidate set" `Quick
            test_cache_builds_no_candidates;
          Alcotest.test_case "each protocol owns its cache" `Quick
            test_protocol_own_cache;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "health and metrics" `Quick
            test_protocol_health_and_metrics;
          Alcotest.test_case "solve one heuristic" `Quick test_protocol_solve;
          Alcotest.test_case "solve all paper rows" `Quick
            test_protocol_solve_all_rows;
          Alcotest.test_case "CLI diagnostic parity" `Quick
            test_protocol_diagnostic_parity;
          Alcotest.test_case "rejections" `Quick test_protocol_rejects;
          Alcotest.test_case "simulate and pareto" `Quick
            test_protocol_simulate_and_pareto;
          Alcotest.test_case "simulate bound" `Quick test_protocol_simulate_bound;
          Alcotest.test_case "het solve with exact row" `Quick
            test_protocol_het_solve_exact;
          Alcotest.test_case "het pareto via the oracle" `Quick
            test_protocol_het_pareto;
          Alcotest.test_case "het simulate" `Quick test_protocol_het_simulate;
          Alcotest.test_case "het exact guard" `Quick
            test_protocol_het_exact_guard;
          Alcotest.test_case "byte-identical responses" `Quick
            test_protocol_byte_identity;
          prop_serve_matches_library;
        ] );
      ( "server",
        [
          Alcotest.test_case "routes" `Quick test_server_routes;
          Alcotest.test_case "malformed request line" `Quick
            test_server_malformed_request;
          Alcotest.test_case "oversized body" `Quick test_server_oversized_body;
          Alcotest.test_case "concurrent clients" `Quick
            test_server_concurrent_clients;
          Alcotest.test_case "client reset mid-body" `Quick
            test_server_reset_client;
          Alcotest.test_case "stalled client next to a healthy one" `Quick
            test_server_stalled_client;
          Alcotest.test_case "client hangs up mid-response" `Quick
            test_server_hangup_mid_response;
          Alcotest.test_case "stop while a client is stalled" `Quick
            test_server_stop_while_stalled;
          Alcotest.test_case "stop and restart" `Quick test_server_stop_restart;
          Alcotest.test_case "byte-identical over HTTP" `Quick
            test_server_byte_identity;
        ] );
      ("fuzz", fuzz_tests);
    ]
