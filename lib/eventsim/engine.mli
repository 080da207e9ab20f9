(** Discrete-event simulation engine.

    A single monotonic clock and a priority queue of callbacks. Events
    fire in ascending (time, scheduling order), so same-instant events
    fire first-scheduled first, whatever the interleaving of schedules,
    cancels and steps; that keeps runs deterministic. Handlers may
    schedule further events and cancel pending ones. *)

type t

type event_id

val create : unit -> t

val now : t -> float
(** Current simulated time, seconds. Starts at 0. *)

val schedule : t -> delay:float -> (unit -> unit) -> event_id
(** Run the callback [delay] seconds from now. [delay] must be
    non-negative. *)

val schedule_at : t -> time:float -> (unit -> unit) -> event_id
(** Run the callback at absolute [time >= now]; [time] must not be
    nan. *)

val cancel : t -> event_id -> unit
(** Removes a pending event; cancelling an already-fired or cancelled
    event is a no-op. Costs O(pending): meant for occasional timers,
    not per-packet events. *)

val pending : t -> int
(** Number of not-yet-fired, not-cancelled events, exactly. *)

val run : ?until:float -> t -> unit
(** Process events in time order. With [until], stops once the clock
    would pass it (the clock then reads [until]); without, runs until
    the queue drains. *)

val step : t -> bool
(** Process exactly one event; [false] when the queue is empty. *)
