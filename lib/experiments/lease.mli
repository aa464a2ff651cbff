(** Durable shard leases for supervised worker processes ({!Supervisor}).

    A lease is one small file per shard recording who is working on it
    and how recently they proved they were alive.  The supervisor
    creates leases [Pending], marks them [Running] just before it spawns
    a worker, and the worker heartbeats by rewriting the file with a
    fresh timestamp.  Every save is a {!Durable.replace} of a header and
    one {!Durable.frame}d record, so a reader — the supervisor polling
    for expiry, or a chaos harness hunting for worker PIDs to kill —
    always sees either the previous complete lease or the next one, never
    a torn record.  Stale temps of dead savers are removed by
    {!Durable.sweep_tmps}.

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
(** Atomically and durably replaces the lease file ({!Durable.replace});
    safe to call concurrently from the worker and the supervisor — last
    writer wins, readers never see a partial file, and a published lease
    survives power failure (it is the fencing token, so losing it could
    resurrect a fenced-out worker). *)

val load : dir:string -> fingerprint:string -> shard:int -> (t, string) result
(** Reads ({!Durable.read}) and verifies the lease: header fingerprint,
    CRC frame, payload shape, and that the file really names [shard].  A
    missing or unreadable file is an [Error]. *)

val expired : now:float -> timeout:float -> t -> bool
(** A [Running] lease whose heartbeat is older than [timeout] seconds —
    the missed-heartbeat half of dead-worker detection (exit status is
    the other half). *)

val status_label : status -> string
