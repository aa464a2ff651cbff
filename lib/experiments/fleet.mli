(** Process-level supervision for trial sweeps: a fleet of worker
    subprocesses under durable leases.

    The self-healing {!Runner} retries and checkpoints {e inside} one OS
    process — a segfault, OOM kill, or machine stall still takes the
    whole sweep down.  The fleet moves the blast radius one level up: it
    shards the trial batch into contiguous ranges ({!plan}) and runs each
    shard in a worker subprocess that streams its range through
    {!Runner.run_outcomes} into its own checkpoint shard.  Leases,
    heartbeats, death detection, reassignment and quarantine are the
    shared {!Supervisor} protocol (DESIGN.md §11): {!supervise} is
    {!Supervisor.run} over the shard plan followed by a merge, and
    {!worker} is {!Supervisor.hold} around the shard's run.

    {b Determinism.}  A trial's RNG derives from the batch seed and its
    {e absolute} trial index alone ({!Runner}), each completed trial is a
    durable checkpoint record, and {!Checkpoint.merge_shards} deduplicates
    deterministically — so however many workers died, were reassigned, or
    duplicated work, a completed fleet's merged {!Stats.summary} is
    bit-identical to a single-process run of the same seed. *)

type point = { key : string; spec : Runner.spec }

val point_names : string list
(** The figure families a fleet can run: ["fig7"], ["fig8"] and
    ["fig11"], ["fig13"]. *)

val point_spec : string -> n:int -> point option
(** The pinned configuration for one {!point_names} entry at size [n]:
    the curve of that {!Figure} pinned by its legend label — ["k=2 max
    cost"] for fig7/fig8, ["m=4n, a=n/4, max cost"] for fig11/fig13 —
    under the key ["fleet-<cmd>|n=<n>"].  Supervisor, workers and
    out-of-process verifiers all look the spec up from [(cmd, n)] alone,
    so there is nothing to serialize. *)

val fingerprint : cmd:string -> n:int -> trials:int -> seed:int -> string
(** The sweep fingerprint stamped into every lease and checkpoint shard
    of a fleet — supervisor and workers must derive it identically. *)

val shard_checkpoint : dir:string -> shard:int -> string
(** [dir/shard-NNNN.ck], the worker's private checkpoint file. *)

val plan : trials:int -> shards:int -> (int * int) array
(** Contiguous near-equal ranges [(lo, hi)] partitioning [0, trials);
    [shards] is clamped to [1, trials].
    @raise Invalid_argument if [trials < 1]. *)

val worker :
  dir:string ->
  fingerprint:string ->
  shard:int ->
  key:string ->
  seed:int ->
  trials:int ->
  heartbeat_interval:float ->
  ?incidents:Incident_log.t ->
  Runner.spec ->
  (unit, string) result
(** Worker entry point: under {!Supervisor.hold}, run the lease's trial
    range into the shard checkpoint — resuming a dead predecessor's
    records rather than rerunning them — heartbeating at batch
    boundaries.  [Error] means the shard was not completed (lease lost,
    unreadable, or not in [Running] state); the caller should exit
    nonzero so the supervisor reassigns. *)

type config = {
  dir : string;  (** fleet state directory (leases + checkpoint shards) *)
  fingerprint : string;
  key : string;  (** checkpoint key of the sweep point *)
  seed : int;
  trials : int;
  shards : int;
  workers : int;  (** concurrent worker processes *)
  heartbeat_timeout : float;
      (** seconds without a heartbeat before a live-looking worker is
          declared dead, killed, and its shard reassigned *)
  poll_interval : float;  (** supervisor poll period, seconds *)
  max_respawns : int;
      (** respawns allowed per shard beyond its first spawn; exhausted
          shards are quarantined *)
  spawn : shard:int -> int;
      (** start a worker for [shard], return its PID.  The CLI execs
          [ncg_sim fleet-worker]; tests fork. *)
  incidents : Incident_log.t option;
}

type report = {
  summary : Stats.summary;  (** over all completed trials, trial order *)
  outcomes : (int * Stats.outcome) list;  (** completed, by trial index *)
  missing : int list;
      (** trials with no record — nonempty iff shards were quarantined
          before finishing *)
  respawns : int;  (** reassignments performed *)
  quarantined : int list;  (** shard ids, sorted *)
  shard_reports : (int * Checkpoint.load_report) list;
      (** per shard checkpoint found on merge; surfaces torn tails *)
  cross_duplicates : int;  (** records found in more than one shard *)
}

val supervise : config -> report
(** Run the whole fleet to completion (every shard [Done] or
    [Quarantined]) through {!Supervisor.run}, then merge the checkpoint
    shards.  Leases of a previous fleet with the same fingerprint and
    plan are honored: [Done] shards are merged without rerunning,
    everything else restarts — so a killed supervisor resumes by
    rerunning the same command.
    @raise Runner.Interrupted after {!Runner.request_stop}, once every
    running worker has been signalled and reaped; fleet state stays on
    disk for resumption.  Any other exception (a failing [spawn]) is
    raised after every running worker has been SIGKILLed and reaped. *)
