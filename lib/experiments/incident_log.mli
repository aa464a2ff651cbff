(** Structured incident log for long sweeps ([incidents.jsonl]).

    The self-healing runtime never aborts a sweep for one bad trial; what
    it cannot silently absorb it records here, one JSON object per line,
    append-only and flushed per record so the log survives the very crash
    it is describing.  The event kinds:

    - [quarantined] — a trial failed every retry; its last verdict and
      attempt count are preserved for post-mortem (the sweep's statistics
      count it under {!Stats.summary.quarantined});
    - [degraded] — the shadow sentinel caught a fast-path divergence and
      the trial finished on the reference engine;
    - [divergence] — one sentinel incident in full detail (step, state
      fingerprint, what differed), usually alongside a [degraded] event;
    - [worker_dead] / [reassigned] / [shard_quarantined] — the fleet
      supervisor's process-level events: a worker died (by exit status or
      missed heartbeats), its shard went back to the pool, or the shard
      exhausted its respawn budget.

    The format is deliberately line-oriented: a torn final line (the crash
    case) leaves every earlier record intact, mirroring {!Checkpoint}.
    Writes are multi-process safe: the log is opened [O_APPEND] and each
    record is emitted as a single [write(2)], so a fleet's workers and
    supervisor can append to one shared file without interleaving inside
    a record. *)

type t

type event =
  | Quarantined of { key : string; trial : int; outcome : Stats.outcome }
  | Degraded of { key : string; trial : int; outcome : Stats.outcome }
  | Divergence of { key : string; trial : int; incident : Sentinel.incident }
  | Worker_dead of {
      shard : int;
      pid : int;
      cause : string;  (** e.g. ["killed by signal -7"], ["heartbeat expired"] *)
      lo : int;
      hi : int;
    }
  | Reassigned of { shard : int; attempt : int }
  | Shard_quarantined of { shard : int; lo : int; hi : int; attempts : int }
  | Job_interrupted of {
      job : int;
      pid : int;
      attempt : int;  (** which attempt of the job the death interrupted *)
      cause : string;
    }
      (** the simulation service's analogue of [worker_dead]: a service
          worker died with this job in flight; the job goes back to the
          queue (or is marked faulted at the attempt cap) *)
  | Stale_tmp_swept of { path : string; owner : int }
      (** a [*.tmp] file left behind by a crashed/SIGKILLed writer was
          removed on the next open or takeover; [owner] is the dead
          writer's pid, which the temp name records ({!Durable.replace}) *)

val open_ : string -> t
(** Opens (appending, creating if needed) the log at [path].  The log is
    never rotated: it grows with the incidents it records. *)

val close : t -> unit

val path : t -> string

val record : t -> event -> unit
(** Appends one event as a single JSON line in one [write(2)], so records
    from concurrent processes never interleave inside a line. *)

val json_of_event : event -> string
(** The exact line {!record} writes (without the newline) — exposed so
    tests can assert the wire format. *)
