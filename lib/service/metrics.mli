(** Service counters and latency statistics.

    A sliding window of recent job latencies (admission to terminal
    outcome) for p50/p99, an exponential moving average of service time
    for admission-control wait estimates, and the outcome counters the
    [health] reply reports.  Not thread-safe — the daemon updates it
    under its state lock. *)

type t

val create : unit -> t
(** The 1024 most recent latencies are retained for the percentiles. *)

(** Counters. *)

val incr : t -> string -> unit
(** Bumps a named counter ([submitted], [completed], [shed_queue_full],
    ...); unknown names create the counter — the health reply includes
    whatever was counted. *)

val count : t -> string -> int
(** 0 for never-bumped names. *)

val observe : t -> float -> unit
(** Records one completed job's latency (seconds): enters the percentile
    window and the service-time EMA. *)

val ema_service_time : t -> float
(** Smoothed seconds per job; 0 until the first observation.  The
    admission controller multiplies this by the backlog to estimate
    wait. *)

val percentile : t -> float -> float
(** [percentile t 0.99] over the current window; [nan] when empty. *)

val to_json : t -> Json.t
(** [{"counters": {...}, "latency": {count, p50, p99, ema}}]. *)
