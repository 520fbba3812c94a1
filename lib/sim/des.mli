(** A small discrete-event simulation kernel.

    Callback-style: handlers schedule further events; {!run} drains the
    event queue in time order (FIFO on ties, so runs are deterministic). *)

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
