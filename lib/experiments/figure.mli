(** The paper's six convergence studies, as one table.

    Figures 7, 8 and 11–14 (Secs. 3.4.1 and 4.2) are families of curves:
    per configuration, run trials on fresh random initial networks until a
    stable network emerges and report the steps it took, for each number
    of agents [n].  A figure here is that list of curves — the paper's
    legend label plus the {!Runner.spec} the curve runs at size [n] — and
    {!sweep} runs any figure, and {!verdicts} checks a sweep against the
    paper's claims.  [ncg_sim], [ncg_verify], the fleet's pinned points
    and the tests all read this table, so it is the one place that says
    what each figure runs and what it must show.

    Both policies appear in every figure, in this order: ["max cost"]
    ({!Policy.Max_cost}) and ["random"] ({!Policy.Random_unhappy}).
    Moving agents play best responses, with move ties broken uniformly in
    the ASG figures and deletion-before-swap-before-addition
    ({!Engine.Prefer_deletion}) in the GBG figures.  The GBG edge price
    is the exact rational [alpha = n/d] for a divisor [d], labelled
    ["a=n/d"] (["a=n"] for [d = 1]).

    {b Figs. 7 (SUM) and 8 (MAX): the bounded-budget ASG.}  Every agent
    owns exactly [k] edges of the initial network (the Sec. 3.4.1
    generator).  Curves: budgets [k in {1, ..., 6, 10}] x policies,
    labelled ["k=2 max cost"].  The paper ran 10,000 trials per point at
    [n = 10, 20, ..., 100].  Its observations: no run exceeds [5n] steps,
    no best-response cycle ever appears, max-cost beats the random policy
    in the SUM version, and the two policies are nearly indistinguishable
    in the MAX version.

    {b Figs. 11 (SUM) and 13 (MAX): the GBG.}  Random initial networks
    with [m] edges (Sec. 4.2.1).  Curves: [m in {n, 4n}] (capped at the
    complete graph) x [alpha in {n/10, n/4, n}] x policies, labelled
    ["m=4n, a=n/4, max cost"].  The paper ran 5,000 trials per point.
    Its observations: convergence within [7n] (SUM) and [8n] (MAX) steps,
    linear growth, slower convergence from denser initial networks and
    smaller [alpha], and no cycles ever.

    {b Figs. 12 (SUM) and 14 (MAX): the GBG's starting topology.}  Three
    settings from Sec. 4.2.2: ["random"] ([n]-edge random networks),
    ["rl"] (a path with random edge ownership) and ["dl"] (a path whose
    ownership forms a directed line).  Curves: settings x
    [alpha in {n/10, n/4, n/2, n}] x policies, labelled
    ["rl, a=n/2, random"].  The paper ran 5,000 trials per point.  It
    finds that the topology matters little in the SUM version (within a
    factor of about 2, with [dl] fastest) and more in the MAX version
    (within a factor of about 5, with [random] fastest). *)

type curve = {
  label : string;  (** the paper's legend string, e.g. ["k=2 max cost"] *)
  spec : ?sentinel:Sentinel.level -> ?max_retries:int -> int -> Runner.spec;
      (** the curve's configuration at [n] agents; the optional settings
          are {!Runner.spec}'s, with its defaults *)
}

type t = {
  name : string;  (** ["fig7"], ..., ["fig14"], the [ncg_sim] command *)
  envelope : int;
      (** the paper's constant: no run takes more than [envelope * n]
          steps — 5 in the ASG (Figs. 7, 8), 7 in the SUM-GBG (Figs. 11,
          12) and 8 in the MAX-GBG (Figs. 13, 14) *)
  curves : curve list;
}

val all : t list
(** fig7, fig8, fig11, fig12, fig13, fig14.  Curve order and labels are
    part of the format: checkpoint keys, table columns and record order
    all follow them. *)

val find : string -> t
(** The figure of {!all} with this name.
    @raise Not_found for any other name. *)

val sweep :
  ?domains:int ->
  ?seed:int ->
  ?checkpoint:Checkpoint.t ->
  ?incidents:Incident_log.t ->
  ?sentinel:Sentinel.level ->
  ?max_retries:int ->
  ns:int list ->
  trials:int ->
  t ->
  Series.curve list
(** One {!Series.curve} per curve of the figure, in table order, each
    with one point per [ns] entry: a {!Runner.run} of [trials] trials
    under the checkpoint key ["<label>|n=<n>"].  The run settings default
    as in {!Runner.run} and {!Runner.spec}.
    @raise Invalid_argument if [max_retries < 0]. *)

val verdicts : t -> Series.curve list -> (string * bool) list
(** The paper's two claims on a sweep of this figure, as labelled
    verdicts in this order: every run of every point converged within
    [envelope * n] steps (["every run converges within 5n steps"] for
    fig7; a run stopped by a limit or a fault never converged), and no
    trial ended in a best-response cycle (["no best-response cycle in
    any trial"]).  [ncg_verify] gates on them; [ncg_sim] prints them
    under its table. *)
