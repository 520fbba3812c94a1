(** The daemon: a loopback TCP listener driving {!Protocol.handle}.

    One background thread accepts connections and serves them {e
    sequentially} — one request per connection, fully handled before the
    next accept. Serialising requests is a design choice, not a
    limitation: the warm-engine cache and the solver engines are not
    thread-safe, and a serial server makes the response stream a pure
    function of the request stream, which is the determinism contract
    (doc/serving.mld; DESIGN.md §12 discusses the trade-off). Requests
    still {e arrive} concurrently — the listen backlog queues them — so
    concurrent clients are safe, merely unparallelised.

    Parallelism lives below: solvers dispatch across
    {!Pipeline_util.Pool} domains at whatever [--jobs] width the process
    was configured with, and their results are jobs-invariant, so
    responses are byte-identical at any width. *)

type t

val start : ?port:int -> ?max_body:int -> Protocol.t -> t
(** Bind [127.0.0.1:port] (default [port = 0]: an ephemeral port — read
    it back with {!port}), start the accept thread, return immediately.
    [max_body] is passed to {!Http.read_request} (default 1 MiB).
    Raises [Unix.Unix_error] when the bind fails (port taken,
    privileged port). Sets the process to ignore SIGPIPE, so a client
    that hangs up before its answer costs a failed write, not the
    process; any exception one connection raises ends that connection
    only. *)

val port : t -> int
(** The bound port (the actual one when started with [port = 0]). *)

val request_stop : t -> unit
(** Ask the accept thread to exit after the in-flight request (observed
    within ~50 ms). Only an atomic store — safe to call from a signal
    handler, which is exactly what [pipeline_sched serve] does on
    SIGINT/SIGTERM. *)

val stop : t -> unit
(** {!request_stop}, then wait for the accept thread to exit and close
    the listening socket. Idempotent; not signal-handler-safe (it
    joins). *)

val wait : t -> unit
(** Block until the accept thread exits (someone calling {!stop} /
    {!request_stop}). The socket is not yet closed — follow with
    {!stop} for that. *)
