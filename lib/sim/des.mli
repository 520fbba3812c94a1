(** A small discrete-event simulation kernel.

    Callback-style: handlers schedule further events; {!run} drains the
    event queue in time order (FIFO on ties, so runs are deterministic).
    {!Resource} provides unary FIFO servers — the one-port processors of
    the stochastic pipeline simulator ({!Workload_sim}) are built on it. *)

type t

val create : unit -> t
val now : t -> float

val schedule : t -> delay:float -> (t -> unit) -> unit
(** Run the handler [delay ≥ 0] time units from now. Raises
    [Invalid_argument] on negative or non-finite delays. *)

val schedule_at : t -> time:float -> (t -> unit) -> unit
(** Absolute-time variant; [time] must not be in the past. *)

val run : ?until:float -> t -> unit
(** Process events until the queue drains (or past [until]). Events at
    the cut-off time are still processed. *)

val pending : t -> int
(** Events still queued (useful in tests). A cancelled event still
    occupies its queue slot until its time comes (it then fires as a
    no-op), so it keeps counting here. *)

type handle
(** Identifies a cancellable event (see {!schedule_cancellable}). *)

val schedule_cancellable : t -> delay:float -> (t -> unit) -> handle
(** Like {!schedule}, but the returned handle can revoke the event before
    it fires — {!Workload_sim} uses this to kill the in-flight
    computation of a crashed processor. Same delay validation as
    {!schedule}. *)

val cancel : t -> handle -> unit
(** Revoke the event. The handler will not run; the queue slot fires as a
    no-op at the original time, preserving the deterministic FIFO order
    of the surviving events. Cancelling twice, or after the event fired,
    is a no-op. *)

val cancelled : handle -> bool
(** True once {!cancel} was called on the handle. *)

(** Unary resource with a FIFO wait queue. *)
module Resource : sig
  type nonrec des = t
  type t

  val create : des -> t

  val acquire : t -> (des -> unit) -> unit
  (** Call the continuation (at the current time, via a zero-delay event)
      once the resource is granted; waiters are served in request order. *)

  val release : t -> unit
  (** Hand the resource to the next waiter (or mark it free). Raises
      [Invalid_argument] when the resource is not held. *)

  val held : t -> bool
  val queue_length : t -> int
end
