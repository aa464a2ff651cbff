(** Trial batches: many runs of one configuration, aggregated.

    Matches the paper's methodology (Secs. 3.4.1 and 4.2.1): per
    configuration, run T trials on fresh random initial networks and report
    the average and maximum number of steps until convergence.  Every trial
    derives its RNG deterministically from [seed] and the trial index, so a
    batch is reproducible and independent of the number of domains — and,
    via {!Checkpoint}, of where an interrupted batch was resumed.

    Self-healing: a trial that raises becomes a counted {!Stats.verdict}
    [Crashed] outcome instead of aborting the batch; per-trial step and
    wall-clock budgets degrade into [Step_limit]/[Time_limit] outcomes; the
    invariant auditor can watch every trial and the shadow {!Sentinel} can
    verify the fast path at run time.  With [max_retries > 0], crashed,
    timed-out and faulted trials are retried on a fresh sub-seed with an
    exponentially backed-off wall-clock budget; a trial that fails every
    attempt is {e quarantined} — its last failure stays in the statistics
    and in the {!Incident_log}, and the sweep carries on. *)

type spec = {
  model : Model.t;
  generate : Random.State.t -> Graph.t;  (** fresh initial network *)
  policy : Policy.t;
  tie_break : Engine.tie_break;
  max_steps : int;  (** per-trial step budget *)
  detect_cycles : bool;
  audit : Audit.level;
  sentinel : Sentinel.level;  (** shadow verification of the fast path *)
  time_budget : float option;
      (** per-trial wall-clock budget, seconds (first attempt; retries
          double it each time) *)
  max_retries : int;  (** extra attempts for crashed/timed-out/faulted
                          trials; [0] disables retrying entirely *)
}

val spec :
  ?policy:Policy.t ->
  ?tie_break:Engine.tie_break ->
  ?max_steps:int ->
  ?detect_cycles:bool ->
  ?audit:Audit.level ->
  ?sentinel:Sentinel.level ->
  ?time_budget:float ->
  ?max_retries:int ->
  Model.t ->
  (Random.State.t -> Graph.t) ->
  spec
(** Defaults: max-cost policy, uniform ties, [50 * n + 2000] steps, cycle
    detection on (the paper watched for cycles in every run), audit off,
    sentinel off, no time budget, no retries.
    @raise Invalid_argument if [max_retries < 0]. *)

val trial_rng : spec -> seed:int -> trial:int -> attempt:int -> Random.State.t
(** The per-trial RNG seeding contract.  Attempt 0 of trial [i] seeds a
    private stream from the triple [(seed, i, n)] — the historical
    derivation, so published numbers reproduce bit for bit; attempt
    [a > 0] appends [a] as a fourth seed component.  Streams are split by
    {e state seeding}, never by drawing from a shared sweep stream: trial
    [i] therefore draws the exact same stream whether it runs alone,
    after other trials on a shared {!Engine.Arena}, on any fleet shard,
    or on a resumed run — and retry sub-seeds stay stable because they
    derive from the triple, not from how many draws any other trial
    made.  The [batch] test suite pins this contract. *)

val engine_config : spec -> attempt:int -> Engine.config
(** The engine configuration a given attempt runs under — history off,
    wall-clock budget backed off per [backoff_budget].  Exposed so callers
    (and the differential suites) can run {!Engine.run} or
    {!Reference.run} under exactly the runner's configuration. *)

val run_trial :
  ?arena:Engine.Arena.t -> spec -> seed:int -> trial:int -> Engine.result
(** First attempt of one trial — the historical RNG derivation
    [(seed, trial, n)], so published numbers reproduce bit for bit.
    [arena] supplies resident trial resources; the result is
    bit-identical with or without one. *)

val run_attempt :
  ?arena:Engine.Arena.t ->
  spec -> seed:int -> trial:int -> attempt:int -> Engine.result
(** [attempt = 0] is {!run_trial}; retries ([attempt > 0]) fold the
    attempt index into the RNG seed and run under
    [backoff_budget time_budget ~attempt]. *)

val backoff_budget : float option -> attempt:int -> float option
(** Exponential backoff of the per-trial wall-clock budget:
    [Some (b *. 2. ** attempt)] — attempt 0 gets [b], attempt 1 gets
    [2b], attempt 2 gets [4b], … [None] stays [None]. *)

val request_stop : ?signal:int -> unit -> unit
(** Cooperative interruption (safe to call from a signal handler): sweeps
    honor the request at the next batch boundary — once the in-flight
    batch has been recorded, to the checkpoint when there is one — by
    raising {!Interrupted}.  [signal] (an OCaml signal number, e.g.
    [Sys.sigint]) records what triggered the stop so the process can
    exit with the signal-accurate conventional code. *)

val stop_requested : unit -> bool

val stop_signal : unit -> int option
(** The signal passed to the most recent {!request_stop}, if any — lets
    the CLI exit 130 on SIGINT and 143 on SIGTERM instead of one
    catch-all code. *)

val reset_stop : unit -> unit

exception Interrupted
(** Raised by {!run_outcomes}/{!run} at a batch boundary after
    {!request_stop}; with a checkpoint, everything completed so far is
    already in it, so a [--resume] restart loses nothing. *)

val run_outcomes :
  ?domains:int ->
  ?seed:int ->
  ?checkpoint:Checkpoint.t ->
  ?key:string ->
  ?incidents:Incident_log.t ->
  ?range:int * int ->
  ?on_batch:(unit -> unit) ->
  trials:int ->
  spec ->
  Stats.outcome list
(** All trial outcomes in trial order.  With [checkpoint], already-recorded
    trials (under [key], default [""]) are taken from the checkpoint and
    each freshly completed batch is recorded to it.  With [incidents],
    sentinel divergences, degraded trials and quarantined trials are
    appended to the incident log as they are observed.

    Pending trials run in batches of [8 * domains], in trial order; each
    batch is split into contiguous chunks ({!Ncg_parallel.Pool.chunk}),
    one per domain slot.  A batch is recorded before the next one
    starts, and a {!request_stop} takes effect after the batch in
    flight, with or without a checkpoint.  Every attempt of every
    trial, first and retry alike, is one {!Engine.run} on its slot's
    resident {!Engine.Arena}, one trial after another, so each attempt's
    [time_budget] starts when that attempt starts.  Outcomes, checkpoint
    record layout and {!Stats} aggregates are bit-for-bit those of
    {!run_attempt} called per trial without an arena — the [batch] test
    suite asserts this — and the same at any [domains].

    [range = (lo, hi)] restricts the run to trials [lo <= t < hi] of the
    [trials]-trial batch and returns exactly those outcomes in order —
    the fleet's shard primitive: trial RNG still derives from the batch
    seed and the {e absolute} trial index, so sharded outcomes are
    bit-identical to the same trials of an unsharded run.  [on_batch]
    fires after every recorded batch (workers heartbeat their lease
    there).
    @raise Interrupted at a batch boundary after {!request_stop}.
    @raise Invalid_argument if [range] is outside [0, trials]. *)

val run :
  ?domains:int ->
  ?seed:int ->
  ?checkpoint:Checkpoint.t ->
  ?key:string ->
  ?incidents:Incident_log.t ->
  trials:int ->
  spec ->
  Stats.summary
(** [seed] defaults to 2013 (the paper's year).  Results are deterministic
    for fixed [seed] and [trials], whatever [domains] and however the batch
    was interrupted and resumed. *)
