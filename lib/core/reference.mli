(** The naive dynamics engine, preserved as a differential oracle.

    This is the pre-fast-path [Engine.run] loop, verbatim: plain
    [Policy.select] over full [Response.is_unhappy] scans and unpruned
    [Response.best_moves] evaluation — no witness cache, no distance
    tables, no bounded BFS.  It is deliberately boring and must stay that
    way: the differential suite runs both engines on the same seeds and
    asserts byte-identical trajectories (same steps, same moves, same stop
    reason, same final network), which is only meaningful while this
    implementation remains the obviously-correct one. *)

val run : ?rng:Random.State.t -> Engine.config -> Graph.t -> Engine.result
(** Behaves exactly like {!Engine.run} (including the default RNG seed and
    every RNG draw), just slower.  [config.cache_budget] is ignored: this
    engine keeps no distance tables. *)
