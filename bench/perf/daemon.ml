(* A [pipeline_sched serve] child process on an ephemeral port. *)

type t = { pid : int; port : int; out : in_channel }

(* The CLI sits next to this executable in the dune build tree. *)
let server_exe () =
  Filename.concat
    (Filename.dirname (Filename.dirname (Filename.dirname Sys.executable_name)))
    (Filename.concat "bin" "pipeline_sched.exe")

(* Start the daemon at [--jobs 1] and wait for its "serving on" line,
   which carries the bound port. *)
let start () =
  let exe = server_exe () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe
      [| exe; "serve"; "--port"; "0"; "--jobs"; "1" |]
      Unix.stdin out_w Unix.stderr
  in
  Unix.close out_w;
  let out = Unix.in_channel_of_descr out_r in
  match input_line out with
  | line ->
    Scanf.sscanf line "pipeline-sched: serving on 127.0.0.1:%d" (fun port ->
        { pid; port; out })
  | exception End_of_file ->
    ignore (Unix.waitpid [] pid);
    failwith (exe ^ " exited before serving")

let peak_rss_mb t = Harness.peak_rss_mb (string_of_int t.pid)

(* SIGTERM, drain its stdout (so its last line never hits a closed
   pipe), and reap it. *)
let stop t =
  (try Unix.kill t.pid Sys.sigterm with Unix.Unix_error _ -> ());
  (try
     while true do
       ignore (input_line t.out)
     done
   with End_of_file | Sys_error _ -> ());
  close_in_noerr t.out;
  ignore (Unix.waitpid [] t.pid)
