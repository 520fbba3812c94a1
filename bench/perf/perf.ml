(* The repository's benchmark: end-to-end and per-layer metrics of six
   workloads. See README.md in this directory.

     perf.exe --seed 2007                      # every workload, one child each
     perf.exe --workload serve-warm --seed 7   # one workload, in this process
     perf.exe --workload exact --trace 1       # per-layer metrics instead
     perf.exe --smoke --trace 1                # all six, tiny sample counts

   The last line a workload prints is one JSON object:
   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}. *)

let workloads =
  [
    Paper_thresholds.workload;
    Web_scale.workload;
    Serve.warm;
    Serve.cold;
    Exact.workload;
    Simulate.workload;
  ]

let workload = ref None
let seed = ref 2007
let seconds = ref 12.
let trace = ref false
let trace_out = ref None
let smoke = ref false

let spec =
  [
    ( "--workload",
      Arg.Symbol
        (List.map (fun (w : Harness.t) -> w.name) workloads, fun s -> workload := Some s),
      " run one workload in this process (default: each in its own child)" );
    ("--seed", Arg.Set_int seed, "N seed of every generated input (default 2007)");
    ( "--seconds",
      Arg.Set_float seconds,
      "S size of the work: three laps of S/3 s each at the workload's calibrated rate \
       (default 12)" );
    ( "--trace",
      Arg.Int
        (function
          | 0 -> trace := false
          | 1 -> trace := true
          | _ -> raise (Arg.Bad "--trace takes 0 or 1")),
      "0|1 1: add a traced lap and report the per-layer metrics" );
    ( "--trace-out",
      Arg.String (fun d -> trace_out := Some d),
      "DIR write each traced lap's spans to DIR/<workload>.trace.json" );
    ("--smoke", Arg.Set smoke, " one set-up and one lap of three samples, small inputs");
  ]

exception Interrupted

let usage = "perf.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]"

(* Re-execute this binary once per workload, so each has its own heap
   and peak RSS. *)
let run_all () =
  let failed =
    List.filter
      (fun (w : Harness.t) ->
        let args =
          [ "--workload"; w.name; "--seed"; string_of_int !seed ]
          @ [ "--seconds"; Printf.sprintf "%.17g" !seconds ]
          @ [ "--trace"; (if !trace then "1" else "0") ]
          @ (match !trace_out with Some d -> [ "--trace-out"; d ] | None -> [])
          @ if !smoke then [ "--smoke" ] else []
        in
        let exe = Sys.executable_name in
        let pid =
          Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin Unix.stdout
            Unix.stderr
        in
        match Unix.waitpid [] pid with
        | _, Unix.WEXITED 0 -> false
        | _ -> true
        | exception e ->
          Unix.kill pid Sys.sigterm;
          ignore (Unix.waitpid [] pid);
          raise e)
      workloads
  in
  List.iter (fun (w : Harness.t) -> Printf.eprintf "perf: workload %s failed\n" w.name) failed;
  failed = []

let () =
  Arg.parse (Arg.align spec) (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  (* One worker domain: the load is single-threaded on every layer. *)
  Pipeline_util.Pool.set_jobs 1;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* A signal unwinds like an exception, so every child started so far —
     a workload process or a daemon — is stopped on the way out. *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> raise Interrupted)))
    [ Sys.sigint; Sys.sigterm ];
  let ok =
    match !workload with
    | None -> run_all ()
    | Some name ->
      let w = List.find (fun (w : Harness.t) -> w.name = name) workloads in
      Harness.measure w
        {
          Harness.seed = !seed;
          seconds = !seconds;
          trace = !trace;
          trace_out = !trace_out;
          smoke = !smoke;
        }
    | exception Interrupted ->
      prerr_endline "perf: interrupted";
      exit 2
  in
  exit (if ok then 0 else 1)
