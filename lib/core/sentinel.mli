(** Shadow verification of the fast dynamics engine.

    The fast engine's correctness guarantee normally lives in the offline
    differential suite ({!Reference} vs {!Engine} over a seeded matrix); a
    long unattended sweep gets no protection if the fast path diverges on
    an input the matrix never saw.  The sentinel closes that gap at run
    time: at sampled steps the engine replays the step through the naive
    {!Policy.select} / {!Response.best_moves} machinery and compares the
    outcome.  On divergence it records a typed {!incident} and the trial
    {e degrades} — it finishes on the reference path instead of crashing
    or silently trusting the broken fast path.

    Soundness of degradation (why the degraded trajectory is still valid,
    see DESIGN.md §10): both comparisons happen {e before} any tie-break
    RNG draw, and selection consumes a probe-independent number of draws
    (the shuffle alone), so at the moment of divergence the live RNG state
    equals the state a pure reference run would have.  Following the
    reference's choice from there reproduces the pure-reference trajectory
    draw for draw. *)

type level =
  | Off  (** no shadow checks (default) *)
  | Sampled of float
      (** each step is shadow-verified with this probability, drawn from a
          dedicated sentinel RNG so the trial's own draw stream — and hence
          its trajectory — is untouched.  Rates [<= 0] never check, rates
          [>= 1] check every step. *)
  | Every_step
      (** every step is shadow-verified; with a healthy fast path the run
          is still bit-identical to {!Reference.run} *)

(** What diverged at the checked step. *)
type phase =
  | Selection of { fast : int option; reference : int option }
      (** the fast path selected a different mover (or disagreed about
          convergence) than the naive policy replay *)
  | Move_set of {
      agent : int;
      fast : Response.evaluated list;
      reference : Response.evaluated list;
    }
      (** the fast candidate enumeration for [agent] differs from the
          naive one — different moves, costs, or order *)

type incident = {
  step : int;  (** steps completed when the divergence was found *)
  fingerprint : string;
      (** canonical key of the network the step started from *)
  phase : phase;
}

type report = {
  checked : int;  (** steps that were shadow-verified *)
  incidents : incident list;  (** chronological *)
  degraded_at : int option;
      (** step at which the trial switched to the reference engine *)
}

val clean_report : report
(** [{ checked = 0; incidents = []; degraded_at = None }] — what
    {!Reference.run} and a sentinel-[Off] {!Engine.run} report. *)

val make_rng : int -> Random.State.t
(** The dedicated sentinel RNG for a run on [n] agents; deterministic, and
    independent of the trial's own RNG. *)

val due : level -> Random.State.t -> bool
(** Whether the current step is to be shadow-verified.  Draws from the
    sentinel RNG only under [Sampled]. *)

val shadows_selection : Policy.t -> bool
(** Selection replay calls the policy a second time on a copied RNG; an
    [Adversarial] scheduler may be a stateful closure for which a second
    call is observable, so only the built-in policies are shadowed at the
    selection phase (the move-set check always runs). *)

val moves_equal : Response.evaluated list -> Response.evaluated list -> bool
(** Element-wise equality of candidate lists: same moves with the same
    recorded costs in the same order — the condition under which the
    fast path's tie-break consumes exactly the reference's RNG draw. *)

val incident_to_string : incident -> string
