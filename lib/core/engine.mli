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

type config = {
  model : Model.t;
  policy : Policy.t;
  move_rule : move_rule;
  tie_break : tie_break;
  max_steps : int;
  detect_cycles : bool;
      (** remember every visited state (exact, labelled) and stop on
          recurrence.  Costs memory proportional to steps. *)
  record_history : bool;
  audit : Audit.level;
      (** invariant auditing; whenever not [Off], the final state is always
          audited and every applied move's cost contract is checked.  If the
          initial network is connected, connectivity is part of the audit
          (improving moves cannot disconnect a connected network). *)
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
      (** number of OCaml domains the max-cost policy fans its per-agent
          cost BFS out over each step; [1] keeps everything on the calling
          domain.  Any value produces the identical trajectory — this is a
          throughput knob only. *)
  incremental : bool;
      (** keep one {!Distcache} alive across steps, patched after every
          committed move, instead of refilling all distance tables each
          step.  Either value produces the identical trajectory — the cache
          changes when distances are computed, never their values (see
          DESIGN.md §12).  [false] reverts to the step-scoped tables. *)
  sublinear : bool;
      (** serve [Max_cost] selection from a bucketed cost board maintained
          incrementally from the distance cache's dirty sets, instead of
          recomputing and sorting all n agent costs every step.  Requires
          [incremental]; either value produces the identical trajectory
          (same RNG draws, same probe order — see DESIGN.md §17), gated by
          the sentinel and the differential/sublinear suites.  [false]
          reverts to the full-scan [Policy.select_fast]. *)
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
  ?scan_domains:int ->
  ?incremental:bool ->
  ?sublinear:bool ->
  ?cache_budget:int ->
  Model.t ->
  config
(** Defaults: max-cost policy, best response, uniform ties, [100 * n + 1000]
    steps, cycle detection off, history on, audit off, sentinel off, no time
    budget, one scan domain, incremental cache on, sublinear selection on,
    unbounded cache residency. *)

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
          (kept/repaired/rebuilt tables, fresh fills, evictions);
          {!Distcache.zero_stats} when [incremental] is off *)
  residency : Distcache.residency;
      (** the cache's memory accounting at the end of the run — resident
          and peak table counts/bytes against the configured budget;
          {!Distcache.zero_residency} when [incremental] is off *)
}

(** A resident arena of trial-scoped resources, for running many trials
    of one network size one after another without re-allocating per
    trial.  The BFS workspaces (live + lazy sentinel shadow) are stamped
    scratch reused as is; the Distcache, cost board, witness table and
    cycle-detection set carry genuine per-trial state, so the arena pools
    one of each — a starting trial takes the set out {e reset} to the
    freshly-created state, and the trial hands it back when it stops (a
    trial that raises keeps it, and the next trial allocates fresh).
    Trajectories and per-trial stats are therefore bit-identical with or
    without an arena.

    An arena serves one trial at a time, and it is a single-domain
    object: never share one across concurrently running domains — give
    each domain its own (handing an arena from one domain to another
    across a fork/join boundary is fine). *)
module Arena : sig
  type t

  val create : int -> t
  (** [create n] builds an arena serving networks of exactly [n]
      vertices. *)

  val capacity : t -> int

  val trials : t -> int
  (** Trials retired through this arena so far. *)

  val cache_stats : t -> Distcache.stats
  (** Sum of the per-trial {!Distcache} stats over all retired trials. *)
end

val run : ?arena:Arena.t -> ?rng:Random.State.t -> config -> Graph.t -> result
(** Runs the process on a private copy of the initial network.  [rng]
    defaults to a fixed seed, so runs are reproducible by default.

    This is the {e fast} engine: witness-cached unhappiness probes,
    distance-table costs and bounded-BFS best-response pruning
    ({!Response.Fast}), optionally with parallel cost scans
    ([scan_domains]).  Its trajectories are byte-identical to
    {!Reference.run} — enforced by the differential suite.

    [arena] supplies pooled trial resources (and must have
    [capacity = Graph.n initial]); the result is bit-identical with or
    without one. *)

val totals : unit -> totals
(** The process totals.  Every finished trial adds to them exactly once,
    and every {!Arena.create} counts an arena; [ncg_sim --verbose] prints
    them, and each service worker reports its own through the [stats]
    op. *)

val reset_totals : unit -> unit

val converged : result -> bool
