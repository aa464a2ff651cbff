(** Per-agent witness cache for unhappiness probes.

    "Is agent [u] unhappy?" naively costs a full candidate sweep — one BFS
    per admissible move.  But unhappiness usually persists: the improving
    move found last time tends to remain improving a step later.  This
    cache remembers, for each agent, the last improving move seen and
    answers the next probe by re-verifying just that move (one bounded
    evaluation via {!Response.Fast.revalidate}); only when the witness went
    stale does the probe fall back to the full scan — which re-caches the
    first improving move it finds.

    Soundness is unconditional: a witness that re-verifies as admissible,
    feasible and strictly improving {e proves} unhappiness, and a failed
    re-verification never declares the agent happy — it merely forfeits the
    shortcut.  Probes therefore return exactly the same boolean as
    [Response.is_unhappy], which is what the differential suite checks. *)

type t

val create : int -> t
(** One empty slot per agent. *)

val reset : t -> unit
(** Forget every witness and counter — the freshly-created state.  Called
    by {!Engine.Arena} when a pooled table is handed to the next trial, so
    no stale move can leak between trials and per-trial hit/scan stats
    match a solo run's. *)

val probe : t -> Response.Fast.ctx -> int -> bool
(** Same boolean as [Response.Fast.is_unhappy ctx u], usually at the price
    of a single evaluation.  Updates the cache as a side effect. *)

val get : t -> int -> Move.t option
(** The cached witness, if any — used to seed best-response pruning. *)

val clear : t -> int -> unit
(** Forget an agent's witness — called after that agent moves, since the
    applied move consumed it. *)

val hits : t -> int
(** Probes answered by re-verifying the cached witness alone. *)

val scans : t -> int
(** Probes that needed a full candidate scan. *)

val skips : t -> int
(** Always 0: every probe re-verifies its remembered move, so none is
    answered without an evaluation.  Kept for the benchmark's witness
    metrics. *)
