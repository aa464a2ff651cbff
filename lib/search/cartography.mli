(** Crash-tolerant distributed strategy-space cartography.

    {!Statespace.explore} answers the paper's per-instance classification
    questions — weak acyclicity, best-response cycles, the Fig. 2 gadget —
    by a single-process in-memory BFS that dies with the process.  This
    module is the same BFS as a fault-tolerant {e wave-synchronous}
    distributed computation over durable artifacts: the supervisor shards
    each BFS frontier into chunks and runs them under the shared lease
    protocol of {!Ncg_experiments.Supervisor} (DESIGN.md §11: assign,
    claim, heartbeat, fencing, reassignment); workers expand their
    chunk's states, and the supervisor merges the resulting arc files,
    dedupes successors against a durable partitioned {e seen ledger} and
    publishes the next frontier atomically.  SIGKILL
    anywhere — worker or supervisor, at any syscall — leaves a state a
    resumed run re-converges from to the {e bit-identical} explored
    region.

    Durability protocol, in one paragraph (the full argument is
    DESIGN.md §16).  All artifacts live under one run directory.  The
    frontier of wave [k] is a single atomically-renamed file [frontier-k]
    listing the wave's states (canonical key + exact encoding, sorted by
    key); {e its rename is the only commit point of the whole wave}.  The
    seen ledger is [P] append-only partition files of CRC-framed
    [(wave, key)] records; appends happen before the frontier rename, so
    the ledger runs {e ahead} of the committed prefix, never behind.
    Recovery therefore (1) finds the largest complete frontier [K],
    (2) truncates ledger records with [wave > K] (and any torn tail) by
    atomic rewrite, and (3) resets incomplete chunk leases of wave [K] —
    after which every surviving record is implied by a committed
    frontier, i.e. exactly-once.  Chunk expansion is deterministic (the
    successor enumeration of {!Statespace.successor_moves} on a decoded
    state), so a reassigned or replayed chunk rewrites byte-identical arc
    files and re-derives byte-identical ledger entries — replays are
    harmless by construction, not by locking.

    Every artifact goes through {!Ncg_experiments.Durable} (DESIGN.md
    §15): the meta, frontier and chunk files and ledger rollbacks are
    {!Ncg_experiments.Durable.replace}d, ledger batches are
    {!Ncg_experiments.Durable.append_framed}, every file is read by
    {!Ncg_experiments.Durable.read}, and dead writers' temps are swept
    from the run directory at start and from each wave directory when
    its chunks are reconciled. *)

(** How successor states are deduplicated. *)
type key_mode =
  | Exact
      (** the {!Statespace.state_key} of the labelled network — the mode
          whose explored region is bit-identical to
          {!Statespace.explore} *)
  | Iso
      (** {!Canonical.iso_key} — quotient by isomorphism, for gadget
          hunting where relabelled copies are noise; falls back to the
          exact key (deterministically) when canonicalisation exceeds its
          budget *)

type spec = {
  tag : string;  (** names the instance inside the fingerprint *)
  model : Model.t;
  initial : Graph.t;
  rule : Statespace.successor_rule;
  key_mode : key_mode;
  max_states : int;  (** exploration budget; excess states are dropped *)
}

val fingerprint : spec -> string
(** What every artifact header records; a run directory refuses to mix
    fingerprints.  Chunking and worker counts are deliberately excluded —
    a run may be resumed with a different chunk size or fleet width. *)

val state_key : spec -> Graph.t -> string
(** The dedupe key under [spec.key_mode]. *)

val encode_state : Graph.t -> string
(** Exact encoding of a state for the durable artifacts —
    {!Canonical.key}, which is injective on labelled networks of fixed
    [n], so [decode_state] inverts it. *)

val decode_state : string -> Graph.t
(** Inverse of {!encode_state}.
    @raise Failure on malformed input (a corrupt artifact, surfaced
    rather than misread). *)

(** The durable partitioned seen ledger.  Exposed — rather than kept
    private to the supervisor — so the io-torture harness can drive every
    syscall of an append under injected faults and assert the recovery
    invariants directly. *)
module Ledger : sig
  val parts : int
  (** Number of partition files (fixed; partition = hash of key). *)

  val part_of_key : string -> int

  val path : dir:string -> part:int -> string

  val append :
    dir:string -> fingerprint:string -> part:int -> (int * string) list -> unit
  (** Appends [(wave, key)] records to one partition as a single
      {!Ncg_experiments.Durable.append_framed} [write(2)] followed by
      [fsync] — a crash tears at most a suffix of the batch, never an
      earlier record.  Creates the partition (with its header, in the
      same write) on first use. *)

  type load = {
    entries : (int * string) list;  (** valid records, file order *)
    torn_tail : bool;  (** the file ended in a partial record *)
  }

  val load_part :
    dir:string -> fingerprint:string -> part:int -> (load, string) result
  (** [Error] means mid-file corruption or a foreign fingerprint — storage
      damage, not a crash artifact; a missing partition is an empty
      [Ok]. *)

  val load_all :
    dir:string -> fingerprint:string -> ((string, int) Hashtbl.t, string) result
  (** The union of all partitions as a key → wave table (the worker's
      seen-filter).  Torn tails are NOT tolerated here — recovery repairs
      them before any worker runs, so one surfacing mid-run is an
      [Error]. *)

  val rollback :
    dir:string -> fingerprint:string -> max_wave:int -> int
  (** Atomically rewrites every partition to the records with
      [wave <= max_wave], also shedding torn tails; returns how many
      records were dropped.  The heart of crash recovery. *)
end

(** One expansion report, as a worker computes it and a chunk file
    records it. *)
type expansion = {
  src : string;  (** the expanded state's key *)
  nsucc : int;  (** raw successor-move count; [0] means stable *)
  arcs : (string * string) list;
      (** distinct successor keys in first-enumeration order, each with
          its exact encoding — or [""] when the successor was already in
          the ledger when the chunk ran (the arc still matters for cycle
          detection; only the encoding is redundant) *)
}

val worker :
  dir:string ->
  wave:int ->
  chunk:int ->
  heartbeat_interval:float ->
  ?throttle_ms:int ->
  spec ->
  (unit, string) result
(** Under {!Ncg_experiments.Supervisor.hold}: loads the wave's frontier
    slice and the full ledger, expands every state and atomically writes
    the chunk's arc file, then marks the lease [Done] — unless the lease
    was reassigned underneath (fencing), which aborts with [Error].
    [throttle_ms] sleeps per expanded state — the chaos soak uses it to
    hold the kill window open. *)

type config = {
  dir : string;
  chunk_size : int;  (** frontier states per chunk *)
  workers : int;  (** concurrent worker processes; ignored in-process *)
  heartbeat_interval : float;
  heartbeat_timeout : float;
  poll_interval : float;
  max_respawns : int;
  throttle_ms : int;
  spawn : (wave:int -> chunk:int -> int) option;
      (** spawns one worker process and returns its PID; [None] expands
          every chunk sequentially in this process — same artifacts, same
          protocol, no fleet *)
  incidents : Ncg_experiments.Incident_log.t option;
  on_wave : (wave:int -> frontier:int -> explored:int -> unit) option;
      (** called after each wave commits — the crash-injection hook the
          resume tests drive *)
}

val default_config : dir:string -> config
(** In-process expansion ([spawn = None]), chunk size 64, 1s heartbeats,
    5s timeout, 3 respawns. *)

type report = {
  explored : int;  (** states in the committed region *)
  stable : (string * string) list;
      (** key and exact encoding of every sink, sorted by key *)
  waves : int;  (** committed non-empty frontiers *)
  arcs : int;  (** distinct arcs in the merged region graph *)
  has_cycle : bool;
      (** some SCC of the region graph is nontrivial — under
          [Best_responses] that is a best-response cycle *)
  largest_scc : int;
  nontrivial_sccs : int;
  truncated : bool;  (** the [max_states] budget dropped states *)
  respawns : int;  (** chunk reassignments this run *)
  resumed : bool;  (** the run directory already held committed waves *)
  rolled_back : int;  (** ledger records undone by crash recovery *)
  region_fingerprint : string;
      (** CRC chain over every key in canonical (wave, key) order plus
          the stable set and the explored count — equal iff two runs
          explored the identical region and found the identical sinks *)
}

val run : config -> spec -> report
(** Recover (sweep stale temp files, roll back uncommitted ledger
    records, reconcile chunk leases), then expand wave by wave until the
    frontier is empty — each wave's chunks in process or through
    {!Ncg_experiments.Supervisor.run} — then merge every chunk file into
    the region graph and run the SCC pass.
    @raise Failure when a chunk exhausts [max_respawns] (the region would
    be incomplete; the wave's other chunks finish first, and every worker
    is reaped), on fingerprint mismatch, or on non-crash artifact
    corruption.
    @raise Ncg_experiments.Runner.Interrupted on cooperative stop. *)

val report_json : report -> string
(** The run report as one JSON object (machine-readable CI artifact). *)

val point_names : string list

val point_spec : ?max_states:int -> string -> spec option
(** Pinned, reconstructible exploration points, shared by the [ncg_sim
    carto] driver, its workers, the chaos soak and CI — same contract as
    {!Ncg_experiments.Fleet.point_spec}: supervisor and worker processes
    rebuild the exact same spec from the point name alone.  ["fig2-br"] /
    ["fig2-imp"] are the paper's Fig. 2 swap gadget under best responses /
    all improving moves; ["pathN-max-sg"] (N in 5..9) are MAX-SG from a
    path, whose regions grow fast enough to exercise real fleets; any
    catalog instance name is accepted and explored under improving
    moves. *)
