(** The simulation daemon: admission control, scheduling, supervision.

    [serve] runs a long-lived daemon on a Unix-domain socket speaking the
    {!Proto} line protocol.  Jobs are executed by a pool of persistent
    worker subprocesses (one job in flight per worker, frames over the
    worker's stdin/stdout); the daemon supervises them with the lease
    protocol of {!Supervisor} (DESIGN.md §11), the one the sweep fleet
    uses — it assigns a slot's {!Lease} before it spawns the slot's
    worker, the worker claims it and heartbeats it on the monotonic
    clock, and the daemon treats a missed-heartbeat worker exactly like
    one that died (pipe EOF): SIGKILL, reap, respawn.

    Degradation ladder (every admitted submission ends in exactly one
    typed outcome, whatever happens):

    - backlog past the queue bound or the wait estimate — typed [shed]
      reply with a retry-after hint; nothing enters the queue;
    - per-job wall-clock deadline — the worker gets the remaining budget
      as its engine time budget, and the daemon's supervisor backstops
      it: a worker still running past the deadline (plus grace) is
      killed and the job completes as [deadline_exceeded];
    - worker death (crash, kill storm, missed heartbeats) — the in-flight
      job returns to the queue with exponential backoff, up to the
      attempt cap, then completes as [faulted]; the client sees each
      interruption as an [incident] line and the daemon records it in
      the {!Incident_log};
    - SIGTERM — drain: stop admitting (typed [draining] sheds), let
      in-flight jobs finish within the drain grace, then exit 143.

    Results are cached under the canonical form of the host graph
    ({!Canonical.iso_key}), so isomorphic submissions are answered from
    one computation — and because workers always run on the canonical
    form, a cached [summary] is bit-identical to the fresh run's. *)

type config = {
  socket_path : string;
  worker_argv : string array;
      (** command for one worker process; the daemon appends
          [slot lease_dir heartbeat_interval] — the receiving
          executable must route those to {!worker_main} *)
  workers : int;
  lease_dir : string;  (** created if missing *)
  max_queue : int;  (** admission bound on queued + backed-off jobs *)
  max_wait : float;
      (** admission bound on estimated wait (backlog x EMA service time
          / live workers), seconds *)
  max_attempts : int;  (** dispatches per job before [faulted] *)
  retry_base : float;
      (** backoff after a worker death: attempt [k] waits
          [retry_base * 2^(k-1)] seconds ({!Runner.backoff_budget}) *)
  heartbeat_interval : float;
  heartbeat_timeout : float;
  deadline_grace : float;
      (** how far past its deadline a job may run before the supervisor
          kills the worker *)
  drain_grace : float;  (** seconds in-flight jobs get after SIGTERM *)
  cache_capacity : int;
  canon_budget : int;
      (** {!Canonical.normal_form} node budget; instances past it are
          admitted but bypass the result cache *)
  max_n : int;  (** largest admissible host graph *)
  incidents : Incident_log.t option;
  tick_interval : float;  (** supervisor poll period *)
  frame_timeout : float;
      (** slow-loris defence: a client that starts a request frame and
          leaves it unterminated for this many seconds is torn down
          (counted in the [stalled_conns] metric).  Idle connections
          with no partial frame are unaffected; 0 disables. *)
}

val config :
  ?workers:int ->
  ?max_queue:int ->
  ?max_wait:float ->
  ?max_attempts:int ->
  ?retry_base:float ->
  ?heartbeat_interval:float ->
  ?heartbeat_timeout:float ->
  ?deadline_grace:float ->
  ?drain_grace:float ->
  ?cache_capacity:int ->
  ?canon_budget:int ->
  ?max_n:int ->
  ?incidents:Incident_log.t ->
  ?tick_interval:float ->
  ?frame_timeout:float ->
  socket_path:string ->
  worker_argv:string array ->
  lease_dir:string ->
  unit ->
  config
(** Defaults: 2 workers, queue bound 64, wait bound 30s, 3 attempts,
    0.25s retry base, 0.5s/3s heartbeats, 1s deadline grace, 30s drain
    grace, 512 cache entries, the {!Canonical.normal_form} default
    budget, hosts up to 96 vertices, no incident log, 50ms ticks, 30s
    frame timeout. *)

val serve : config -> int
(** Runs the daemon until drained; returns the exit code the process
    should exit with (143 after SIGTERM, 130 after SIGINT, 0 after a
    protocol-level drain request).  Installs SIGTERM/SIGINT handlers
    (both trigger a drain) and ignores SIGPIPE.  Blocks the calling
    thread for the daemon's lifetime. *)

val worker_main :
  slot:int -> lease_dir:string -> heartbeat_interval:float -> unit -> unit
(** Body of one worker process: reads job frames from stdin, writes one
    result line per job to stdout, and from a background thread claims
    its slot's lease ({!Supervisor.claim}) and heartbeats it
    ({!Supervisor.beat}) on the monotonic clock.  Exits silently when
    stdin closes or the lease stops naming it (fencing).  Worker
    executables call this after parsing the three argv words the daemon
    appended. *)
