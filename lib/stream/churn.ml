type kind = Crash | Recover | Join | Speed of float

type event = { at : float; proc : int; kind : kind }

let sorted events =
  List.stable_sort
    (fun a b ->
      match Float.compare a.at b.at with 0 -> compare a.proc b.proc | c -> c)
    events

let validate ~p events =
  List.iter
    (fun e ->
      if Float.is_nan e.at || (not (Float.is_finite e.at)) || e.at < 0. then
        invalid_arg "Churn.validate: event time must be finite and >= 0";
      if e.proc < 0 || e.proc >= p then
        invalid_arg "Churn.validate: processor out of range";
      match e.kind with
      | Speed f when not (Float.is_finite f && f > 0.) ->
        invalid_arg "Churn.validate: speed factor must be finite and > 0"
      | Join when not (e.at > 0.) ->
        invalid_arg "Churn.validate: a join must happen at a time > 0"
      | _ -> ())
    events;
  (* Per-processor sequencing over the time-sorted trace. *)
  let joins = Array.make p false in
  List.iter
    (fun e -> if e.kind = Join then joins.(e.proc) <- true)
    events;
  let up = Array.init p (fun u -> not joins.(u)) in
  let seen = Array.make p false in
  let last_at = Array.make p neg_infinity in
  List.iter
    (fun e ->
      let u = e.proc in
      if e.at = last_at.(u) then
        invalid_arg "Churn.validate: simultaneous events on one processor";
      last_at.(u) <- e.at;
      (match e.kind with
      | Join ->
        if seen.(u) then
          invalid_arg "Churn.validate: a join must be the processor's first event";
        up.(u) <- true
      | Crash ->
        if not up.(u) then
          invalid_arg "Churn.validate: crash of a processor that is already down";
        up.(u) <- false
      | Recover ->
        if up.(u) then
          invalid_arg "Churn.validate: recovery of a processor that is up";
        if (not seen.(u)) && joins.(u) then
          invalid_arg "Churn.validate: a join must be the processor's first event";
        up.(u) <- true
      | Speed _ ->
        if (not seen.(u)) && joins.(u) then
          invalid_arg "Churn.validate: a join must be the processor's first event");
      seen.(u) <- true)
    (sorted events)

(* CSV round-trip: at,proc,event[,factor]. *)

let kind_name = function
  | Crash -> "crash"
  | Recover -> "recover"
  | Join -> "join"
  | Speed _ -> "speed"

let of_csv_string s =
  let lines = String.split_on_char '\n' s in
  let rev = ref [] and line_no = ref 0 and error = ref None in
  let fail fmt = Printf.ksprintf (fun m -> error := Some m) fmt in
  List.iter
    (fun raw ->
      incr line_no;
      if !error = None then begin
        let line = String.trim raw in
        if line = "" then ()
        else begin
          let cells = List.map String.trim (String.split_on_char ',' line) in
          match cells with
          | [ a; b; c ] | [ a; b; c; _ ]
            when !rev = []
                 && String.lowercase_ascii a = "at"
                 && String.lowercase_ascii b = "proc"
                 && String.lowercase_ascii c = "event" ->
            ()
          | at :: proc :: kind :: rest -> (
            match (float_of_string_opt at, int_of_string_opt proc) with
            | None, _ -> fail "line %d: not a number: %S" !line_no at
            | _, None -> fail "line %d: not a processor index: %S" !line_no proc
            | Some at, Some proc -> (
              let kind_cell = String.lowercase_ascii kind in
              match (kind_cell, rest) with
              | "crash", [] -> rev := { at; proc; kind = Crash } :: !rev
              | "recover", [] -> rev := { at; proc; kind = Recover } :: !rev
              | "join", [] -> rev := { at; proc; kind = Join } :: !rev
              | "speed", [ f ] -> (
                match float_of_string_opt f with
                | Some f -> rev := { at; proc; kind = Speed f } :: !rev
                | None -> fail "line %d: not a speed factor: %S" !line_no f)
              | "speed", [] -> fail "line %d: speed row needs a factor column" !line_no
              | ("crash" | "recover" | "join"), _ :: _ ->
                fail "line %d: unexpected fourth column" !line_no
              | _ -> fail "line %d: unknown event: %S" !line_no kind))
          | _ -> fail "line %d: expected at,proc,event[,factor]" !line_no
        end
      end)
    lines;
  match !error with Some e -> Error e | None -> Ok (List.rev !rev)

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | contents -> of_csv_string contents
  | exception Sys_error msg -> Error msg

let to_csv events =
  let buf = Buffer.create (32 * (List.length events + 1)) in
  Buffer.add_string buf "at,proc,event\n";
  List.iter
    (fun e ->
      match e.kind with
      | Speed f ->
        Buffer.add_string buf
          (Printf.sprintf "%.17g,%d,speed,%.17g\n" e.at e.proc f)
      | k -> Buffer.add_string buf (Printf.sprintf "%.17g,%d,%s\n" e.at e.proc (kind_name k)))
    events;
  Buffer.contents buf

(* Live-platform state. *)

type state = { up : bool array; factors : float array }

let initial ~p events =
  let up = Array.make p true in
  List.iter (fun e -> if e.kind = Join then up.(e.proc) <- false) events;
  { up; factors = Array.make p 1. }

let apply state e =
  let up = Array.copy state.up and factors = Array.copy state.factors in
  (match e.kind with
  | Crash -> up.(e.proc) <- false
  | Recover | Join -> up.(e.proc) <- true
  | Speed f -> factors.(e.proc) <- factors.(e.proc) *. f);
  { up; factors }

let alive state u = state.up.(u)
let factor state u = state.factors.(u)

let survivors state =
  let p = Array.length state.up in
  Array.of_list (List.filter (fun u -> state.up.(u)) (List.init p Fun.id))

let fingerprint state =
  let buf = Buffer.create (20 * Array.length state.up) in
  Array.iteri
    (fun u up ->
      Buffer.add_char buf (if up then '1' else '0');
      Buffer.add_string buf (Printf.sprintf "%Lx;" (Int64.bits_of_float state.factors.(u))))
    state.up;
  Buffer.contents buf

(* Compilation to Workload_sim vocabulary. *)

let crashes ~p events =
  validate ~p events;
  let events = sorted events in
  let down_since = Array.make p None in
  let rev = ref [] in
  List.iter
    (fun e ->
      match e.kind with
      | Join ->
        rev :=
          { Pipeline_sim.Workload_sim.at = 0.; proc = e.proc; recover_at = Some e.at }
          :: !rev
      | Crash -> down_since.(e.proc) <- Some e.at
      | Recover -> (
        match down_since.(e.proc) with
        | Some at ->
          down_since.(e.proc) <- None;
          rev :=
            { Pipeline_sim.Workload_sim.at; proc = e.proc; recover_at = Some e.at }
            :: !rev
        | None -> ())
      | Speed _ -> ())
    events;
  Array.iteri
    (fun u since ->
      match since with
      | Some at -> rev := { Pipeline_sim.Workload_sim.at; proc = u; recover_at = None } :: !rev
      | None -> ())
    down_since;
  List.rev !rev

let slowdowns events =
  List.filter_map
    (fun e ->
      match e.kind with
      | Speed factor ->
        Some { Pipeline_sim.Workload_sim.at = e.at; proc = e.proc; factor }
      | _ -> None)
    (sorted events)
