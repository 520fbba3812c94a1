(** Minimal HTTP/1.1 over [Unix] sockets, hand-rolled (no new deps).

    Exactly the subset the daemon speaks: one request per connection
    (every response carries [Connection: close]), a request line plus
    headers capped at {!max_header_bytes}, and an optional
    [Content-Length]-framed body capped by the server's [max_body]. The
    whole request must arrive within {!deadline_s} of the read starting,
    so a client that stops sending cannot hold the connection. Chunked
    transfer encoding, pipelining and keep-alive are deliberately out of
    scope — the protocol surface is small enough to audit.

    The {!get}/{!post} client helpers exist for the tests and the
    benchmark; they speak the same restricted dialect. *)

type request = {
  meth : string;  (** verb, upper-case as received *)
  path : string;  (** request target, undecoded *)
  headers : (string * string) list;  (** names lower-cased, values trimmed *)
  body : string;
}

type error =
  | Closed  (** peer closed before a full request arrived *)
  | Too_large of string  (** header block or declared body over the cap *)
  | Malformed of string  (** anything else; one-line diagnostic *)
  | Timeout  (** the request was not complete within {!deadline_s} *)

val max_header_bytes : int
(** Cap on request line + headers (8 KiB). *)

val deadline_s : float
(** Seconds a whole request may take to arrive (2): each read waits only
    for the time left. A constant, not a setting. *)

val read_request :
  ?max_body:int -> Unix.file_descr -> (request, error) result
(** Read one request from the socket. [max_body] (default 1 MiB) bounds
    the declared [Content-Length]; an over-cap body is reported
    {e without} reading it, so oversized instances are rejected in
    O(header) work (the daemon answers 413). A request still incomplete
    {!deadline_s} after the call is [Timeout] (the daemon answers
    408). *)

val header : request -> string -> string option
(** Case-insensitive header lookup. *)

val write_response :
  Unix.file_descr -> status:int -> ?content_type:string -> string -> unit
(** Write a complete response ([Content-Length] framing,
    [Connection: close]). [content_type] defaults to
    [application/json]. Write errors (peer went away) are swallowed:
    the connection is being closed either way. *)

val reason : int -> string
(** Canonical reason phrase for the status codes the daemon uses. *)

(** {2 Client} *)

val get : port:int -> string -> (int * string, string) result
(** [get ~port path] — status and body, loopback only. *)

val post : port:int -> string -> body:string -> (int * string, string) result
(** [post ~port path ~body] — a JSON POST, loopback only. *)
