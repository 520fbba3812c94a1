(* Accept loop: single thread, sequential handling — the determinism
   contract of doc/serving.mld. Shutdown is a polled atomic: the loop
   selects with a short timeout, so a stop request is observed within
   ~50 ms without needing a self-pipe. *)

type t = {
  sock : Unix.file_descr;
  bound_port : int;
  stop_flag : bool Atomic.t;
  cleaned : bool Atomic.t;
  thread : Thread.t;
}

let serve_connection protocol ~max_body client =
  Fun.protect
    ~finally:(fun () -> try Unix.close client with Unix.Unix_error _ -> ())
    (fun () ->
      match Http.read_request ~max_body client with
      | Ok req ->
        let status, content_type, body = Protocol.handle protocol req in
        Http.write_response client ~status ~content_type body
      | Error Http.Closed -> () (* nothing arrived; nothing to answer *)
      | Error (Http.Too_large msg) ->
        Http.write_response client ~status:413
          (Printf.sprintf "{\"error\":%s}" (Json.to_string (Json.String msg)))
      | Error (Http.Malformed msg) ->
        Http.write_response client ~status:400
          (Printf.sprintf "{\"error\":%s}" (Json.to_string (Json.String msg))))

let accept_loop protocol ~max_body sock stop_flag =
  while not (Atomic.get stop_flag) do
    match Unix.select [ sock ] [] [] 0.05 with
    | [], _, _ -> ()
    | _ :: _, _, _ -> (
      match Unix.accept sock with
      | client, _addr -> (
        (* Whatever one connection raises (a peer that resets mid-body
           fails the read with ECONNRESET) ends that connection only;
           serve_connection has already closed its socket. *)
        try serve_connection protocol ~max_body client with _ -> ())
      | exception Unix.Unix_error _ -> ())
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

let start ?(port = 0) ?(max_body = 1024 * 1024) protocol =
  (* A write to a peer that has hung up must fail with EPIPE, which
     Http.write_response handles, rather than kill the process. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (match
     Unix.setsockopt sock Unix.SO_REUSEADDR true;
     Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
     Unix.listen sock 64
   with
  | () -> ()
  | exception e ->
    (try Unix.close sock with Unix.Unix_error _ -> ());
    raise e);
  let bound_port =
    match Unix.getsockname sock with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> assert false
  in
  let stop_flag = Atomic.make false in
  let thread =
    Thread.create (fun () -> accept_loop protocol ~max_body sock stop_flag) ()
  in
  { sock; bound_port; stop_flag; cleaned = Atomic.make false; thread }

let port t = t.bound_port

(* Only the atomic store: safe from a signal handler. *)
let request_stop t = Atomic.set t.stop_flag true

let stop t =
  request_stop t;
  if not (Atomic.exchange t.cleaned true) then begin
    Thread.join t.thread;
    try Unix.close t.sock with Unix.Unix_error _ -> ()
  end

let wait t = Thread.join t.thread
