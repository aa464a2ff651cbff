(** Monotonic time source for staleness detection and deadlines.

    Heartbeat freshness ([Ncg_experiments.Lease.expired]), retry backoff,
    service deadlines and the engines' [time_budget] are all elapsed-time
    questions; answering them with
    [Unix.gettimeofday] makes them vulnerable to NTP steps — a forward
    step can mass-expire every live lease of a fleet at once, a backward
    step can keep a dead worker's lease fresh forever.  [monotonic]
    reads [CLOCK_MONOTONIC]: a single system-wide timeline (seconds
    since boot) that clock adjustments never move, comparable across
    processes on the same machine — exactly the property the
    supervisor/worker heartbeat protocol needs.

    Values are {e not} wall-clock times: they are only meaningful as
    differences against other [monotonic] readings on the same host
    since the same boot.  Durable formats that stamp heartbeats
    ([Ncg_experiments.Lease]) therefore only ever compare them against fresh readings,
    never against calendar time. *)

val monotonic : unit -> float
(** Seconds on the monotonic timeline ([CLOCK_MONOTONIC]); falls back to
    [gettimeofday] only on platforms without a monotonic clock. *)
