(** Durable shard leases for supervised worker processes ({!Supervisor}).

    A lease is one small file per shard recording who is working on it
    and how recently they proved they were alive.  The supervisor
    creates leases [Pending], marks them [Running] just before it spawns
    a worker, and the worker heartbeats by rewriting the file with a
    fresh timestamp.  Because every write is temp-file + rename with the same
    CRC framing as checkpoint v2, a reader — the supervisor polling for
    expiry, or a chaos harness hunting for worker PIDs to kill — always
    sees either the previous complete lease or the next one, never a torn
    record.

    The lease is also the fencing token: a worker reloads its lease
    before each heartbeat and stops if it is no longer the owner, so a
    stalled worker that the supervisor already reassigned cannot come
    back and fight its replacement. *)

type status =
  | Pending  (** unowned; the supervisor may assign it to a worker *)
  | Running  (** owned; [owner]/[heartbeat] say by whom and how recently *)
  | Done  (** every trial in [lo, hi) is in the shard checkpoint *)
  | Quarantined  (** failed every respawn; excluded from the sweep *)

type t = {
  shard : int;  (** shard index, also the file name *)
  lo : int;  (** first trial of the shard, inclusive *)
  hi : int;  (** last trial, exclusive *)
  status : status;
  owner : int;  (** worker PID; 0 when unowned *)
  heartbeat : float;  (** epoch seconds of the last liveness proof *)
  attempts : int;  (** spawn attempts so far, counting the first *)
}

val path : dir:string -> shard:int -> string
(** [dir/shard-NNNN.lease]. *)

val save : dir:string -> fingerprint:string -> t -> unit
(** Atomically replaces the lease file (unique temp + fsync + rename +
    directory fsync); safe to call concurrently from the worker and the
    supervisor — last writer wins, readers never see a partial file, and
    a published lease survives power failure (it is the fencing token,
    so losing it could resurrect a fenced-out worker). *)

val load : dir:string -> fingerprint:string -> shard:int -> (t, string) result
(** Reads and verifies the lease: header fingerprint, CRC frame, payload
    shape, and that the file really names [shard]. *)

val expired : now:float -> timeout:float -> t -> bool
(** A [Running] lease whose heartbeat is older than [timeout] seconds —
    the missed-heartbeat half of dead-worker detection (exit status is
    the other half). *)

val status_label : status -> string

val sweep_stale : dir:string -> ?incidents:Incident_log.t -> unit -> int
(** Removes [shard-NNNN.lease.<pid>.tmp] files whose recorded writer pid
    no longer exists — the droppings of a SIGKILLed worker that died
    between creating its temp file and renaming it into place.  Temp
    files of {e live} pids (a save in flight right now) are left alone,
    as is anything whose owner cannot be proven dead ([EPERM]).  Each
    sweep is recorded as a {!Incident_log.event.Stale_tmp_swept} event
    when [?incidents] is given; returns the number removed.  A missing
    or unreadable [dir] sweeps nothing. *)
