type move_rule = Best_response | Any_improving

type tie_break = Uniform | Prefer_deletion | First_candidate

type config = {
  model : Model.t;
  policy : Policy.t;
  move_rule : move_rule;
  tie_break : tie_break;
  max_steps : int;
  detect_cycles : bool;
  record_history : bool;
  audit : Audit.level;
  sentinel : Sentinel.level;
  time_budget : float option;
  scan_domains : int;
  incremental : bool;
  sublinear : bool;
  cache_budget : int option;
}

let config ?(policy = Policy.Max_cost) ?(move_rule = Best_response)
    ?(tie_break = Uniform) ?max_steps ?(detect_cycles = false)
    ?(record_history = true) ?(audit = Audit.Off)
    ?(sentinel = Sentinel.Off) ?time_budget ?cache_budget model =
  let max_steps =
    match max_steps with
    | Some s -> s
    | None -> (100 * Model.n model) + 1000
  in
  { model; policy; move_rule; tie_break; max_steps; detect_cycles;
    record_history; audit; sentinel; time_budget; scan_domains = 1;
    incremental = true; sublinear = true; cache_budget }

type step = {
  index : int;
  move : Move.t;
  effect : Move.kind;
  cost_before : Cost.t;
  cost_after : Cost.t;
}

type stop_reason =
  | Converged
  | Cycle_detected of { first_visit : int; period : int }
  | Step_limit
  | Time_limit
  | Invariant_violation of Audit.violation

type totals = {
  trials : int;
  arenas : int;
  cache : Distcache.stats;
  peak_tables : int;
  peak_bytes : int;
}

type result = {
  reason : stop_reason;
  steps : int;
  history : step list;
  final : Graph.t;
  sentinel : Sentinel.report;
  cache : Distcache.stats;
  residency : Distcache.residency;
}

let kind_rank = function
  | Move.Kdelete -> 0
  | Move.Kswap -> 1
  | Move.Kbuy -> 2
  | Move.Kjump -> 3

let pick_uniform rng = function
  | [] -> None
  | moves -> Some (List.nth moves (Random.State.int rng (List.length moves)))

(* Tie-break among precomputed candidates.  On an equal candidate list the
   RNG draws are exactly those of [Reference.choose_move] — which is what
   lets the sentinel compare lists *before* any draw and still hand the
   reference path an unperturbed stream on divergence. *)
let pick_from cfg rng g moves =
  match cfg.move_rule with
  | Any_improving -> pick_uniform rng moves
  | Best_response -> (
      match cfg.tie_break with
      | First_candidate -> ( match moves with [] -> None | e :: _ -> Some e)
      | Uniform -> pick_uniform rng moves
      | Prefer_deletion ->
          let rank e = kind_rank (Move.classify_effect g e.Response.move) in
          let min_rank =
            List.fold_left (fun acc e -> min acc (rank e)) max_int moves
          in
          pick_uniform rng (List.filter (fun e -> rank e = min_rank) moves))

(* The candidate moves of the selected agent — the fast path.  The witness
   move cached for [u] seeds best-response pruning; it never changes the
   list, which is bit-identical to the naive [Response.best_moves] (see
   DESIGN.md §9), so the RNG consumption of the tie-break matches
   [Reference.choose_move] draw for draw. *)
let fast_candidates cfg ctx witness u =
  match cfg.move_rule with
  | Any_improving -> Response.Fast.improving_moves ctx u
  | Best_response ->
      Response.Fast.best_moves ?prior:(Witness.get witness u) ctx u

(* The same candidates through the naive machinery — the shadow replay and
   the degraded (post-divergence) path. *)
let naive_candidates cfg ~ws g u =
  match cfg.move_rule with
  | Any_improving -> Response.improving_moves ~ws cfg.model g u
  | Best_response -> Response.best_moves ~ws cfg.model g u

(* The process totals: one immutable record behind one atomic, replaced
   by compare-and-set, so concurrent domains never lose an update. *)
let zero_totals =
  {
    trials = 0;
    arenas = 0;
    cache = Distcache.zero_stats;
    peak_tables = 0;
    peak_bytes = 0;
  }

let g_totals = Atomic.make zero_totals

let rec update_totals f =
  let cur = Atomic.get g_totals in
  if not (Atomic.compare_and_set g_totals cur (f cur)) then update_totals f

let totals () = Atomic.get g_totals
let reset_totals () = Atomic.set g_totals zero_totals

(* A resident arena of trial-scoped resources.  One arena serves any number
   of trials of the same size, strictly one at a time.  The BFS workspaces
   are stamped scratch that every trial's steps reuse as is.  The witness
   table, visited set, distance cache and cost board carry per-trial
   state, so a trial resets each one it reuses.  Every trial needs the
   first two, which come with the arena; the cache and the board (which
   only max-cost selection uses) are made on first use and kept — the
   cache only for a trial with the same memory budget, since a budget
   mismatch would change the eviction sequence a trial observes versus
   its solo run.  Arenas are single-domain objects: give each domain its
   own.  A run given no arena takes its resources from a private one
   ([make]), which the process totals do not count. *)
module Arena = struct
  type t = {
    n : int;
    ws : Paths.Workspace.t;
    shadow_ws : Paths.Workspace.t Lazy.t;
    witness : Witness.t;
    seen : Visited.t;
    mutable cache : Distcache.t option;
    mutable board : Costboard.t option;
  }

  let make n =
    {
      n;
      ws = Paths.Workspace.create n;
      shadow_ws = lazy (Paths.Workspace.create n);
      witness = Witness.create n;
      seen = Visited.create ();
      cache = None;
      board = None;
    }

  let create n =
    if n < 0 then invalid_arg "Engine.Arena.create: negative size";
    update_totals (fun t -> { t with arenas = t.arenas + 1 });
    make n

  let cache ?budget t =
    match t.cache with
    | Some c when Distcache.budget c = budget ->
        Distcache.reset c;
        c
    | _ ->
        let c = Distcache.create ?budget t.n in
        t.cache <- Some c;
        c

  let board t =
    match t.board with
    | Some b ->
        Costboard.reset b;
        b
    | None ->
        let b = Costboard.create t.n in
        t.board <- Some b;
        b
end

(* One trial's state, which [run] sets up and then advances one [step] at
   a time.  The trial has degraded to the naive machinery exactly when
   [degraded_at] is set. *)
type trial = {
  cfg : config;
  rng : Random.State.t;
  g : Graph.t;
  ws : Paths.Workspace.t;
  shadow_ws : Paths.Workspace.t Lazy.t;
  witness : Witness.t;
  cache : Distcache.t;
  board : Costboard.t option;
  seen : Visited.t;
  require_connected : bool;
  srng : Random.State.t;
  mutable history : step list; (* newest first *)
  mutable checked : int;
  mutable incidents : Sentinel.incident list; (* newest first *)
  mutable degraded_at : int option;
  mutable steps : int;
  mutable last : int option;
}

(* A step that ends the trial raises its stop reason. *)
exception Stop of stop_reason

let violation v = raise_notrace (Stop (Invariant_violation v))

let audit_graph s step =
  match
    Audit.check_graph ~require_connected:s.require_connected ~step s.cfg.model
      s.g
  with
  | [] -> None
  | v :: _ -> Some v

(* A checked step disagreed with the naive replay: record the incident,
   and the trial degrades. *)
let diverge s phase =
  s.incidents <-
    {
      Sentinel.step = s.steps;
      fingerprint =
        Canonical.state_key ~owned:(Model.uses_ownership s.cfg.model) s.g;
      phase;
    }
    :: s.incidents;
  s.degraded_at <- Some s.steps

(* The tail of every step: audit the move contract, apply, record, audit
   the graph, detect cycles. *)
let finish_step s u (e : Response.evaluated) =
  let cfg = s.cfg in
  let effect = Move.classify_effect s.g e.Response.move in
  if cfg.audit <> Audit.Off then
    Option.iter violation
      (Audit.check_move ~step:s.steps cfg.model ~mover:u
         ~before:e.Response.before ~after:e.Response.after);
  (* When a cost board is consuming dirty sets, pin the move's primitive
     endpoints resident before the first primitive: the cache's per-source
     dirty classifier needs their pre-primitive rows, and the pins keep a
     memory-bounded cache from evicting them mid-move (a multi-primitive
     move reuses them, repaired, for its later primitives). *)
  let pinned =
    match s.board with
    | Some _ ->
        let touched = Move.touched s.g e.Response.move in
        List.iter
          (fun v ->
            ignore (Distcache.ensure s.cache ~ws:s.ws s.g v);
            Distcache.pin s.cache v)
          touched;
        touched
    | None -> []
  in
  (* The cache and the visited set follow the move primitive by
     primitive: each note_* sees the graph exactly after its primitive,
     against the tables from before it — the state the keep/repair rules
     assume. *)
  ignore
    (Move.apply_observed s.g e.Response.move ~on_prim:(fun p ->
         (match p with
         | Move.Added (a, b) -> Distcache.note_added s.cache s.g a b
         | Move.Removed (a, b, _) -> Distcache.note_removed s.cache s.g a b);
         if cfg.detect_cycles then Visited.note s.seen s.g p));
  List.iter (Distcache.unpin s.cache) pinned;
  Witness.clear s.witness u;
  if cfg.record_history then
    s.history <-
      {
        index = s.steps;
        move = e.Response.move;
        effect;
        cost_before = e.Response.before;
        cost_after = e.Response.after;
      }
      :: s.history;
  s.steps <- s.steps + 1;
  if Audit.should_check cfg.audit s.steps then
    Option.iter violation (audit_graph s s.steps);
  (if cfg.detect_cycles then
     match Visited.visit s.seen with
     | Some first_visit ->
         let period = s.steps - first_visit in
         raise_notrace (Stop (Cycle_detected { first_visit; period }))
     | None -> ());
  s.last <- Some u

(* One context per step, over the cross-step cache: it inherits all
   tables that survived (were kept or repaired by) the previous step's
   patch.  The witness cache survives across steps too — probes
   revalidate.

   The cost board is brought up to date over it: a full refresh on the
   first step (every agent's key), then only the agents the cache's last
   patch marked dirty.  Keys install no table: an agent without a
   resident one is keyed from the cache's 63-source bit-parallel BFS, so
   even the full refresh is about n/63 graph passes and a budgeted cache
   evicts nothing here.  Key evaluations consume no RNG, so the stream
   stays in lockstep with [select]/[select_fast].

   At an audited step, every refreshed key is then checked against a
   fresh BFS cost, so a stale board names its agent instead of surfacing
   as a different mover.  The shadow workspace keeps the live BFS scratch
   untouched. *)
let fast_context s =
  let cfg = s.cfg in
  let ctx = Response.Fast.of_cache s.ws cfg.model s.g s.cache in
  (match s.board with
  | Some board ->
      let refresh v = Costboard.update board v (Response.Fast.cost_key ctx v) in
      if Costboard.complete board then Distcache.iter_dirty refresh s.cache
      else
        for v = 0 to Graph.n s.g - 1 do
          refresh v
        done;
      Distcache.clear_dirty s.cache;
      if Audit.should_check cfg.audit s.steps then
        Option.iter violation
          (Audit.check_board ~step:s.steps ~ws:(Lazy.force s.shadow_ws)
             cfg.model s.g board)
  | None -> ());
  ctx

(* One step: select the mover, take its candidates, break the tie, apply.
   Both phases run on the fast path, replayed through the naive machinery
   at a step the sentinel checks, until the trial degrades; from then on
   every step runs the naive machinery verbatim (cf. [Reference.run]) on
   the live RNG — graceful degradation, not a crash. *)
let step s =
  let cfg = s.cfg in
  let ctx =
    if Option.is_none s.degraded_at then Some (fast_context s) else None
  in
  let checking = Option.is_some ctx && Sentinel.due cfg.sentinel s.srng in
  let snap =
    if checking && Sentinel.shadows_selection cfg.policy then
      Some (Random.State.copy s.rng)
    else None
  in
  let picked =
    match (ctx, s.board) with
    | None, _ ->
        Policy.select cfg.policy ~rng:s.rng ~ws:s.ws cfg.model s.g ~last:s.last
    | Some ctx, Some board ->
        (* Output-sensitive selection.  Probes consume no RNG either. *)
        Policy.select_sublinear cfg.policy ~rng:s.rng ~ctx ~witness:s.witness
          ~board cfg.model s.g ~last:s.last
    | Some ctx, None ->
        Policy.select_fast cfg.policy ~rng:s.rng ~ctx ~witness:s.witness
          cfg.model s.g ~last:s.last
  in
  let picked =
    match snap with
    | None -> picked
    | Some shadow_rng ->
        s.checked <- s.checked + 1;
        let reference =
          Policy.select cfg.policy ~rng:shadow_rng ~ws:(Lazy.force s.shadow_ws)
            cfg.model s.g ~last:s.last
        in
        (* [select] and [select_fast] consume identical RNG draw counts (the
           shuffle alone, probes draw nothing), so continuing with the live
           [rng] follows the reference stream exactly. *)
        if reference <> picked then
          diverge s (Sentinel.Selection { fast = picked; reference });
        reference
  in
  let u =
    match picked with Some u -> u | None -> raise_notrace (Stop Converged)
  in
  let moves =
    match ctx with
    | Some ctx when Option.is_none s.degraded_at ->
        let fast = fast_candidates cfg ctx s.witness u in
        if not checking then fast
        else begin
          if Option.is_none snap then s.checked <- s.checked + 1;
          let reference =
            naive_candidates cfg ~ws:(Lazy.force s.shadow_ws) s.g u
          in
          if Sentinel.moves_equal fast reference then fast
          else begin
            (* caught before any tie-break draw: picking from the reference
               list keeps the trajectory bit-identical to a pure reference
               run *)
            diverge s (Sentinel.Move_set { agent = u; fast; reference });
            reference
          end
        end
    | _ -> naive_candidates cfg ~ws:s.ws s.g u
  in
  match pick_from cfg s.rng s.g moves with
  | Some e -> finish_step s u e
  | None ->
      (* The policy contract promises only unhappy agents, so an improving
         move must exist; surface the breach as a typed violation rather
         than crashing the whole sweep. *)
      violation
        {
          Audit.kind = Audit.Happy_agent_selected;
          step = s.steps;
          subject = Some u;
          detail =
            Printf.sprintf "policy selected agent %d with no improving move" u;
        }

let run ?arena ?rng cfg initial =
  let n = Graph.n initial in
  let arena =
    match arena with
    | None -> Arena.make n
    | Some a when a.Arena.n = n -> a
    | Some _ -> invalid_arg "Engine: arena size does not match the network size"
  in
  let rng =
    match rng with Some r -> r | None -> Random.State.make [| 0x5eed; n |]
  in
  let g = Graph.copy initial in
  (* The cross-step distance cache: patched after every committed move and
     handed to each step's context. *)
  let cache = Arena.cache ?budget:cfg.cache_budget arena in
  (* The bucketed cost board, fed by the cache's dirty sets, exists
     exactly when selection sorts by cost. *)
  let board =
    match cfg.policy with
    | Policy.Max_cost -> Some (Arena.board arena)
    | Policy.Random_unhappy | Policy.Round_robin | Policy.Adversarial _ -> None
  in
  let witness = arena.Arena.witness and seen = arena.Arena.seen in
  Witness.reset witness;
  if cfg.detect_cycles then
    Visited.start seen ~owned:(Model.uses_ownership cfg.model) g;
  let s =
    {
      cfg;
      rng;
      g;
      ws = arena.Arena.ws;
      shadow_ws = arena.Arena.shadow_ws;
      witness;
      cache;
      board;
      seen;
      (* A connected network can never disconnect under improving moves
         (the mover's own cost would become infinite), so connectivity is
         part of the audited contract exactly when the run started
         connected. *)
      require_connected = cfg.audit <> Audit.Off && Paths.is_connected g;
      (* The sentinel RNG and the shadow workspace are private to the
         verification layer: the trial's own draw stream and the live
         context's BFS scratch are never touched, so a healthy checked run
         is bit-identical to an unchecked one. *)
      srng = Sentinel.make_rng n;
      history = [];
      checked = 0;
      incidents = [];
      degraded_at = None;
      steps = 0;
      last = None;
    }
  in
  let deadline =
    Option.map (fun b -> Clock.monotonic () +. b) cfg.time_budget
  in
  let rec loop () =
    if s.steps >= cfg.max_steps then Step_limit
    else if
      match deadline with None -> false | Some d -> Clock.monotonic () > d
    then Time_limit
    else match step s with () -> loop () | exception Stop reason -> reason
  in
  let reason =
    (* Whatever the sampling level, always audit the final state. *)
    match loop () with
    | Invariant_violation _ as reason -> reason
    | (Converged | Cycle_detected _ | Step_limit | Time_limit) as reason -> (
        if cfg.audit = Audit.Off then reason
        else
          match audit_graph s s.steps with
          | Some v -> Invariant_violation v
          | None -> reason)
  in
  let cache_stats = Distcache.stats cache
  and residency = Distcache.residency cache in
  update_totals (fun t ->
      {
        t with
        trials = t.trials + 1;
        cache = Distcache.add_stats t.cache cache_stats;
        peak_tables = max t.peak_tables residency.Distcache.peak;
        peak_bytes = max t.peak_bytes residency.Distcache.peak_bytes;
      });
  {
    reason;
    steps = s.steps;
    history = List.rev s.history;
    final = g;
    sentinel =
      {
        Sentinel.checked = s.checked;
        incidents = List.rev s.incidents;
        degraded_at = s.degraded_at;
      };
    cache = cache_stats;
    residency;
  }

let converged r = match r.reason with
  | Converged -> true
  | Cycle_detected _ | Step_limit | Time_limit | Invariant_violation _ ->
      false
