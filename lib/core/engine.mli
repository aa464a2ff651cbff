(** The network creation process: sequential improving-move dynamics.

    Starting from an initial network [G_0], repeatedly: the move policy
    picks an unhappy agent, that agent performs a best (or any improving)
    move, and the state advances.  The process stops when nobody is
    unhappy (a {e stable network} — a pure Nash equilibrium of the
    underlying game), when a previously visited state recurs (a better- or
    best-response cycle), or when the step budget runs out.

    This engine {e is} the distributed-local-search algorithm whose
    convergence the paper analyses; all the experiments of Sections 3.4 and
    4.2 are [run] under different configurations. *)

type move_rule =
  | Best_response
      (** The mover plays a best possible move; ties resolved by
          {!tie_break}.  Used by every experiment in the paper. *)
  | Any_improving
      (** The mover plays a uniformly random improving move — better-
          response dynamics, the widest notion under which FIPG
          membership is defined. *)

type tie_break =
  | Uniform  (** uniformly random among the tied best moves (Sec. 3.4.1) *)
  | Prefer_deletion
      (** deletions before swaps before additions (Sec. 4.2.1), remaining
          ties uniform *)
  | First_candidate  (** deterministic: first in enumeration order *)

type config = private {
  model : Model.t;
  policy : Policy.t;
  move_rule : move_rule;
  tie_break : tie_break;
  max_steps : int;
  detect_cycles : bool;
      (** remember every visited state (exact, labelled, with ownership
          when the game uses it) and stop on recurrence.  States are keyed
          by an incremental fingerprint whose hits a journal of the move
          primitives confirms exactly ({!Visited}, DESIGN.md §18): O(1)
          per primitive, O(p log p) to confirm a repeat p primitives
          back, and a few words of memory per step. *)
  record_history : bool;
  audit : Audit.level;
      (** invariant auditing; whenever not [Off], the final state is always
          audited and every applied move's cost contract is checked.  If the
          initial network is connected, connectivity is part of the audit
          (improving moves cannot disconnect a connected network).  At each
          mid-run audited step the cost board, when there is one, is
          checked key by key against fresh BFS costs
          ({!Audit.check_board}). *)
  sentinel : Sentinel.level;
      (** shadow verification: at sampled steps the engine replays the
          step through the naive machinery and compares.  On divergence
          the trial records a typed incident and {e degrades} — it
          finishes on the reference path, bit-identical to a pure
          {!Reference.run} (see {!Sentinel} for the soundness argument).
          Healthy runs are unaffected at any level. *)
  time_budget : float option;
      (** elapsed-time budget in seconds for this run, measured on
          {!Clock.monotonic}; exceeding it stops the run with
          {!Time_limit}. *)
  scan_domains : int;
      (** Always [1]; for [benchmark/replica.ml] until ROADMAP item 1b. *)
  incremental : bool;
      (** Always [true]; for [benchmark/replica.ml] until ROADMAP item 1b. *)
  sublinear : bool;
      (** Always [true]; for [benchmark/replica.ml] until ROADMAP item 1b. *)
  cache_budget : int option;
      (** cap on resident distance tables ({!Distcache} LRU eviction past
          it); [None] keeps every filled table resident.  A budget changes
          when tables are recomputed, never their values, so trajectories
          are identical under any budget.  At n = 10,000 an unbounded cache
          is O(n²) resident ints — set a budget for large sweeps. *)
}

val config :
  ?policy:Policy.t ->
  ?move_rule:move_rule ->
  ?tie_break:tie_break ->
  ?max_steps:int ->
  ?detect_cycles:bool ->
  ?record_history:bool ->
  ?audit:Audit.level ->
  ?sentinel:Sentinel.level ->
  ?time_budget:float ->
  ?cache_budget:int ->
  Model.t ->
  config
(** The only way to build a {!config}.  Defaults: max-cost policy, best
    response, uniform ties, [100 * n + 1000] steps, cycle detection off,
    history on, audit off, sentinel off, no time budget, unbounded cache
    residency. *)

type step = {
  index : int;  (** 0-based position in the run *)
  move : Move.t;
  effect : Move.kind;  (** net effect, for phase statistics *)
  cost_before : Cost.t;  (** the mover's cost before the move *)
  cost_after : Cost.t;
}

type stop_reason =
  | Converged
  | Cycle_detected of { first_visit : int; period : int }
      (** the state after the last step was first seen after step
          [first_visit]; [period] steps separate the two visits *)
  | Step_limit
  | Time_limit  (** the per-run wall-clock budget ran out *)
  | Invariant_violation of Audit.violation
      (** the auditor found a broken invariant, or the policy selected a
          happy agent (the pre-robustness engine crashed on the latter) *)

type totals = {
  trials : int;  (** trials finished, with or without an arena *)
  arenas : int;  (** {!Arena}s created *)
  cache : Distcache.stats;  (** the trials' summed {!result.cache} *)
  peak_tables : int;  (** the largest per-trial peak residency, in tables *)
  peak_bytes : int;  (** the same, in bytes *)
}
(** Process totals, read with {!totals}: one set for every trial of the
    process, across all domains. *)

type result = {
  reason : stop_reason;
  steps : int;  (** number of moves performed *)
  history : step list;  (** chronological; empty unless [record_history] *)
  final : Graph.t;
  sentinel : Sentinel.report;
      (** shadow-verification outcome; {!Sentinel.clean_report} whenever
          the sentinel is off or no checked step diverged *)
  cache : Distcache.stats;
      (** incremental distance-cache decisions over the whole run
          (kept/repaired/rebuilt tables, fresh fills, evictions) *)
  residency : Distcache.residency;
      (** the cache's memory accounting at the end of the run — resident
          and peak table counts/bytes against the configured budget *)
}

(** A resident arena of trial-scoped resources, for running many trials
    of one network size one after another without re-allocating per
    trial.  The BFS workspaces (live + lazy sentinel shadow) are stamped
    scratch reused as is.  The witness table, cycle-detection set,
    distance cache and cost board carry genuine per-trial state: the
    arena keeps each from its first use and resets it when the next trial
    reuses it (the cache only under the same [cache_budget]).
    Trajectories and per-trial stats are therefore bit-identical with or
    without an arena; {!totals} counts the trials and arenas.

    An arena serves one trial at a time, and it is a single-domain
    object: never share one across concurrently running domains — give
    each domain its own (handing an arena from one domain to another
    across a fork/join boundary is fine). *)
module Arena : sig
  type t

  val create : int -> t
  (** [create n] builds an arena serving networks of exactly [n]
      vertices. *)
end

val run : ?arena:Arena.t -> ?rng:Random.State.t -> config -> Graph.t -> result
(** Runs the process on a private copy of the initial network.  [rng]
    defaults to a fixed seed, so runs are reproducible by default.

    This is the {e fast} engine, and it has one path: one {!Distcache}
    kept across steps, max-cost selection keyed from a cost board fed by
    the cache's dirty sets, witness-cached unhappiness probes, and a
    prefiltered, exactly scored best-response scan ({!Response.Fast}).
    Its trajectories are byte-identical to {!Reference.run} — enforced by
    the differential suite.

    [arena] supplies resident trial resources (and must have been
    created for [Graph.n initial] vertices); the result is bit-identical
    with or without one. *)

val totals : unit -> totals
(** The process totals.  Every finished trial adds to them exactly once,
    and every {!Arena.create} counts an arena; [ncg_sim --verbose] prints
    them, and each service worker reports its own through the [stats]
    op. *)

val reset_totals : unit -> unit

val converged : result -> bool
