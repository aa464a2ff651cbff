(** Re-export of {!Ncg_core.Clock}, the [CLOCK_MONOTONIC] time source for
    heartbeats, backoff and deadlines. *)

val monotonic : unit -> float
