(** The one lease protocol for supervised worker processes (DESIGN.md
    §11), shared by the trial fleet ({!Fleet}) and the simulation daemon.
    A supervisor {!assign}s a shard's {!Lease} before it spawns the
    shard's worker; the worker {!claim}s it, {!beat}s it while the lease
    still names it, and marks it [Done] ({!hold}).  A worker is dead when
    it exits (exit 0 counts only with a [Done] lease) or when its
    heartbeat, stamped on {!Clock.monotonic}, is older than the timeout;
    a stale worker is SIGKILLed and reaped before its shard is
    reassigned. *)

val kill_and_reap : int -> unit
(** SIGKILL the process and wait for it.  A process already gone is
    fine. *)

val stale : dir:string -> fingerprint:string -> timeout:float -> int -> bool
(** [stale ~dir ~fingerprint ~timeout shard]: the shard's lease is
    [Running] with a heartbeat more than [timeout] seconds old.  An
    unreadable lease is not stale. *)

(** {1 Supervisor side} *)

val assign :
  dir:string -> fingerprint:string -> shard:int -> lo:int -> hi:int -> unit
(** Save the shard's lease [Running] over [[lo, hi)], owner 0, fresh
    heartbeat, one attempt more than the lease on disk.  Call it before
    spawning the worker, so the worker never reads the lease of the
    incarnation it replaces. *)

type config = {
  dir : string;
  fingerprint : string;
  ranges : (int * int) array;
  workers : int;  (** concurrent worker processes *)
  heartbeat_timeout : float;
  poll_interval : float;
  max_respawns : int;  (** respawns per shard beyond its first spawn *)
  spawn : int -> int;  (** start a shard's worker, return its PID *)
  incidents : Incident_log.t option;
}

type report = {
  respawns : int;
  quarantined : (int * string) list;
      (** shards that died on all [max_respawns + 1] attempts, sorted,
          with the cause of the last death *)
}

val run : config -> report
(** Take over [dir] (created if missing) for the plan where shard [s]
    covers [ranges.(s)]: sweep dead writers' temp files from it
    ({!Durable.sweep_tmps}), keep every shard whose lease is [Done] over
    the same range, and reset every other lease to [Pending].  Then keep
    up to [workers] workers running until every shard is [Done] or
    quarantined.  Deaths, reassignments and quarantines are
    [worker_dead], [reassigned] and [shard_quarantined] incidents.
    @raise Runner.Interrupted after {!Runner.request_stop}, once every
    running worker has been sent SIGTERM and reaped.  Any other exception
    (a failing [spawn], say) propagates after every running worker has
    been SIGKILLed and reaped. *)

(** {1 Worker side} *)

exception Lease_lost of string
(** What {!hold}'s [beat] raises when this worker is fenced. *)

val claim :
  dir:string -> fingerprint:string -> shard:int -> (Lease.t, string) result
(** Make this process the owner of the shard's [Running] lease, whoever
    owned it before, with a fresh heartbeat.  [Error] when the lease is
    unreadable or not [Running]. *)

val beat : dir:string -> fingerprint:string -> shard:int -> (unit, string) result
(** Refresh the heartbeat of a claimed lease.  [Error] (fenced) when the
    lease is unreadable or no longer [Running] under this process. *)

val hold :
  dir:string ->
  fingerprint:string ->
  shard:int ->
  heartbeat_interval:float ->
  (Lease.t -> beat:(unit -> unit) -> (unit, string) result) ->
  (unit, string) result
(** {!claim}, run [body lease ~beat] — [beat ()] is a {!beat} at most
    once per [heartbeat_interval], raising {!Lease_lost} when fenced —
    and on [Ok ()] mark the lease [Done] if this worker still owns it.
    [Error] means the shard was not completed: exit nonzero. *)
