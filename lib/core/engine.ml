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
    ?(sentinel = Sentinel.Off) ?time_budget ?(scan_domains = 1)
    ?(incremental = true) ?(sublinear = true) ?cache_budget model =
  let max_steps =
    match max_steps with
    | Some s -> s
    | None -> (100 * Model.n model) + 1000
  in
  { model; policy; move_rule; tie_break; max_steps; detect_cycles;
    record_history; audit; sentinel; time_budget; scan_domains; incremental;
    sublinear; cache_budget }

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

let choose_move cfg rng ctx witness g u =
  pick_from cfg rng g (fast_candidates cfg ctx witness u)

let state_key model g =
  if Model.uses_ownership model then Canonical.key g else Canonical.unowned_key g

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
   of trials of the same size, strictly one at a time: the BFS workspaces
   are stamped scratch that every trial's steps reuse as is, while the
   Distcache, Costboard, Witness table and visited set carry genuine
   per-trial state and so sit in one pooled slot each — a starting trial
   takes them out reset, a retiring trial puts them back.  A trial that
   raises never returns its set; the next trial simply allocates fresh.
   Arenas are single-domain objects: give each domain its own. *)
module Arena = struct
  type t = {
    capacity : int;
    ws : Paths.Workspace.t;
    shadow_ws : Paths.Workspace.t Lazy.t;
    mutable pooled_cache : Distcache.t option;
    mutable pooled_witness : Witness.t option;
    mutable pooled_seen : Visited.t option;
    mutable pooled_board : Costboard.t option;
    mutable trials : int;
    mutable cache_stats : Distcache.stats;
  }

  let create n =
    if n < 0 then invalid_arg "Engine.Arena.create: negative size";
    update_totals (fun t -> { t with arenas = t.arenas + 1 });
    {
      capacity = n;
      ws = Paths.Workspace.create n;
      shadow_ws = lazy (Paths.Workspace.create n);
      pooled_cache = None;
      pooled_witness = None;
      pooled_seen = None;
      pooled_board = None;
      trials = 0;
      cache_stats = Distcache.zero_stats;
    }

  let capacity t = t.capacity
  let trials t = t.trials
  let cache_stats t = t.cache_stats

  (* The pooled cache is reused only by a trial with the same memory
     budget — a budget mismatch would silently change the eviction
     sequence a trial observes versus its solo run. *)
  let alloc_cache ?budget t =
    match t.pooled_cache with
    | Some c when Distcache.budget c = budget ->
        t.pooled_cache <- None;
        Distcache.reset c;
        c
    | _ -> Distcache.create ?budget t.capacity

  let alloc_board t =
    match t.pooled_board with
    | Some b ->
        t.pooled_board <- None;
        Costboard.reset b;
        b
    | None -> Costboard.create t.capacity

  let alloc_witness t =
    match t.pooled_witness with
    | Some w ->
        t.pooled_witness <- None;
        Witness.reset w;
        w
    | None -> Witness.create t.capacity

  (* [Visited.start] resets the set, so it is handed out as it is. *)
  let alloc_seen t =
    match t.pooled_seen with
    | Some v ->
        t.pooled_seen <- None;
        v
    | None -> Visited.create ()

  let retire t ~cache_stats:(s : Distcache.stats) ?board ?cache witness seen =
    t.trials <- t.trials + 1;
    t.cache_stats <- Distcache.add_stats t.cache_stats s;
    t.pooled_witness <- Some witness;
    t.pooled_seen <- Some seen;
    Option.iter (fun c -> t.pooled_cache <- Some c) cache;
    Option.iter (fun b -> t.pooled_board <- Some b) board
end

(* One trial as an explicit state machine: [stepper_start] acquires the
   trial's resources, [stepper_advance] runs exactly one step (or records
   the stop reason), [stepper_run] advances until a stop reason is
   recorded, and [stepper_finish] assembles the result and returns pooled
   resources to the arena. *)

type stepper_mode = Mode_fast | Mode_degraded

type stepper = {
  cfg : config;
  rng : Random.State.t;
  g : Graph.t;
  arena : Arena.t option;
  ws : Paths.Workspace.t;
  shadow_ws : Paths.Workspace.t Lazy.t;
  witness : Witness.t;
  cache : Distcache.t option;
  board : Costboard.t option;
  mutable board_ready : bool;
  seen : Visited.t;
  deadline : float option;
  require_connected : bool;
  srng : Random.State.t;
  mutable history : step list; (* newest first *)
  mutable checked : int;
  mutable incidents : Sentinel.incident list; (* newest first *)
  mutable degraded_at : int option;
  mutable mode : stepper_mode;
  mutable steps : int;
  mutable last : int option;
  mutable stopped : stop_reason option;
}

let stepper_start ?arena ?rng cfg initial =
  let rng =
    match rng with
    | Some r -> r
    | None -> Random.State.make [| 0x5eed; Graph.n initial |]
  in
  let n = Graph.n initial in
  (match arena with
  | Some a when Arena.capacity a <> n ->
      invalid_arg "Engine: arena capacity does not match the network size"
  | _ -> ());
  let g = Graph.copy initial in
  let ws, shadow_ws =
    match arena with
    | Some a -> (a.Arena.ws, a.Arena.shadow_ws)
    | None -> (Paths.Workspace.create n, lazy (Paths.Workspace.create n))
  in
  let witness =
    match arena with Some a -> Arena.alloc_witness a | None -> Witness.create n
  in
  (* The cross-step distance cache: owned here, patched after every
     committed move, handed to each step's context.  [None] reverts to the
     step-scoped tables of the pre-incremental fast path. *)
  let cache =
    if cfg.incremental then
      Some
        (match arena with
        | Some a -> Arena.alloc_cache ?budget:cfg.cache_budget a
        | None -> Distcache.create ?budget:cfg.cache_budget n)
    else None
  in
  (* The bucketed cost board exists exactly when the sublinear max-cost
     selection can use it: it needs the cross-step cache (the dirty sets
     come from its patch classification) and only Max_cost sorts by
     cost. *)
  let board =
    match (cfg.sublinear, cache, cfg.policy) with
    | true, Some _, Policy.Max_cost ->
        Some
          (match arena with
          | Some a -> Arena.alloc_board a
          | None -> Costboard.create n)
    | _ -> None
  in
  let seen =
    match arena with Some a -> Arena.alloc_seen a | None -> Visited.create ()
  in
  if cfg.detect_cycles then
    Visited.start seen ~owned:(Model.uses_ownership cfg.model) g;
  (* A connected network can never disconnect under improving moves (the
     mover's own cost would become infinite), so connectivity is part of
     the audited contract exactly when the run started connected. *)
  let require_connected = cfg.audit <> Audit.Off && Paths.is_connected g in
  {
    cfg;
    rng;
    g;
    arena;
    ws;
    shadow_ws;
    witness;
    cache;
    board;
    board_ready = false;
    seen;
    deadline = Option.map (fun b -> Clock.monotonic () +. b) cfg.time_budget;
    require_connected;
    (* Sentinel state.  The sentinel RNG and the shadow workspace are
       private to the verification layer: the trial's own draw stream and
       the live context's BFS scratch are never touched, so a healthy
       checked run is bit-identical to an unchecked one. *)
    srng = Sentinel.make_rng n;
    history = [];
    checked = 0;
    incidents = [];
    degraded_at = None;
    mode = Mode_fast;
    steps = 0;
    last = None;
    stopped = None;
  }

let audit_graph s step =
  match
    Audit.check_graph ~require_connected:s.require_connected ~step s.cfg.model
      s.g
  with
  | [] -> None
  | v :: _ -> Some v

let note_incident s phase =
  s.incidents <-
    { Sentinel.step = s.steps; fingerprint = state_key s.cfg.model s.g; phase }
    :: s.incidents

let happy_violation s u =
  (* The policy contract promises only unhappy agents, so an improving
     move must exist; surface the breach as a typed violation rather
     than crashing the whole sweep. *)
  s.stopped <-
    Some
      (Invariant_violation
         {
           Audit.kind = Audit.Happy_agent_selected;
           step = s.steps;
           subject = Some u;
           detail =
             Printf.sprintf "policy selected agent %d with no improving move" u;
         })

(* Post-choice step body shared by the fast and the degraded path: audit
   the move contract, apply, record, audit the graph, detect cycles, then
   continue in [next_mode]. *)
let finish_step s u (e : Response.evaluated) ~next_mode =
  let cfg = s.cfg in
  let effect = Move.classify_effect s.g e.Response.move in
  let contract =
    if cfg.audit = Audit.Off then None
    else
      Audit.check_move ~step:s.steps cfg.model ~mover:u
        ~before:e.Response.before ~after:e.Response.after
  in
  (* The visited set follows the move primitive by primitive. *)
  let note_seen p = if cfg.detect_cycles then Visited.note s.seen s.g p in
  match contract with
  | Some v -> s.stopped <- Some (Invariant_violation v)
  | None -> (
      (match s.cache with
      | Some c ->
          (* When a cost board is consuming dirty sets, pin the move's
             primitive endpoints resident before the first primitive: the
             cache's per-source dirty classifier needs their pre-primitive
             rows, and the pins keep a memory-bounded cache from evicting
             them mid-move (a multi-primitive move reuses them, repaired,
             for its later primitives). *)
          let pinned =
            match s.board with
            | None -> []
            | Some _ ->
                let touched = Move.touched s.g e.Response.move in
                List.iter
                  (fun v ->
                    ignore (Distcache.ensure c ~ws:s.ws s.g v);
                    Distcache.pin c v)
                  touched;
                touched
          in
          (* Patch the cache primitive by primitive: each note_* sees the
             graph exactly after its primitive, against the tables from
             before it — the state the keep/repair rules assume. *)
          ignore
            (Move.apply_observed s.g e.Response.move ~on_prim:(fun p ->
                 (match p with
                 | Move.Added (a, b) -> Distcache.note_added c s.g a b
                 | Move.Removed (a, b, _) -> Distcache.note_removed c s.g a b);
                 note_seen p));
          List.iter (fun v -> Distcache.unpin c v) pinned
      | None ->
          ignore (Move.apply_observed s.g e.Response.move ~on_prim:note_seen));
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
      match
        if Audit.should_check cfg.audit s.steps then audit_graph s s.steps
        else None
      with
      | Some v -> s.stopped <- Some (Invariant_violation v)
      | None ->
          let continue_ () =
            s.last <- Some u;
            s.mode <- next_mode
          in
          if cfg.detect_cycles then
            match Visited.visit s.seen with
            | Some first_visit ->
                s.stopped <-
                  Some
                    (Cycle_detected
                       { first_visit; period = s.steps - first_visit })
            | None -> continue_ ()
          else continue_ ())

let ref_move s u =
  match
    pick_from s.cfg s.rng s.g (naive_candidates s.cfg ~ws:s.ws s.g u)
  with
  | None -> happy_violation s u
  | Some e -> finish_step s u e ~next_mode:Mode_degraded

(* Bring the cost board up to date: a full refresh on the first step
   (every agent's key), then only the agents the cache's last patch marked
   dirty.  Keys install no table: an agent without a resident one is keyed
   from the cache's 63-source bit-parallel BFS, so even the full refresh
   is about n/63 graph passes and a budgeted cache evicts nothing here.
   Key evaluations consume no RNG, so the stream stays in lockstep with
   [select]/[select_fast]. *)
let refresh_board s ctx =
  match (s.board, s.cache) with
  | Some board, Some c ->
      if not s.board_ready then begin
        for v = 0 to Graph.n s.g - 1 do
          Costboard.update board v (Response.Fast.cost_key ctx v)
        done;
        s.board_ready <- true
      end
      else
        Distcache.iter_dirty
          (fun v -> Costboard.update board v (Response.Fast.cost_key ctx v))
          c;
      Distcache.clear_dirty c
  | _ -> ()

(* At an audited step, every refreshed key against a fresh BFS cost — so
   a stale board names its agent instead of surfacing as a different
   mover.  The shadow workspace keeps the live BFS scratch untouched. *)
let board_violation s =
  match s.board with
  | Some board when Audit.should_check s.cfg.audit s.steps ->
      Audit.check_board ~step:s.steps ~ws:(Lazy.force s.shadow_ws) s.cfg.model
        s.g board
  | _ -> None

(* Selection, over the refreshed board when there is one, and the selected
   agent's move. *)
let fast_move s ctx =
  let cfg = s.cfg in
  let checking = Sentinel.due cfg.sentinel s.srng in
  let snap =
    if checking && Sentinel.shadows_selection cfg.policy then
      Some (Random.State.copy s.rng)
    else None
  in
  let picked =
    match s.board with
    | Some board ->
        (* Output-sensitive selection.  Probes consume no RNG either. *)
        Policy.select_sublinear cfg.policy ~rng:s.rng ~ctx ~witness:s.witness
          ~board cfg.model s.g ~last:s.last
    | None ->
        Policy.select_fast cfg.policy ~rng:s.rng ~ctx ~witness:s.witness
          ~domains:cfg.scan_domains cfg.model s.g ~last:s.last
  in
  let shadow_sel =
    match snap with
    | None -> `Agree
    | Some shadow_rng ->
        s.checked <- s.checked + 1;
        let reference =
          Policy.select cfg.policy ~rng:shadow_rng
            ~ws:(Lazy.force s.shadow_ws) cfg.model s.g ~last:s.last
        in
        if reference = picked then `Agree else `Diverged reference
  in
  match shadow_sel with
  | `Diverged reference -> (
      note_incident s (Sentinel.Selection { fast = picked; reference });
      s.degraded_at <- Some s.steps;
      (* [select] and [select_fast] consume identical RNG draw counts
         (the shuffle alone, probes draw nothing), so continuing with the
         live [rng] follows the reference stream exactly. *)
      match reference with
      | None -> s.stopped <- Some Converged
      | Some u -> ref_move s u)
  | `Agree -> (
      match picked with
      | None -> s.stopped <- Some Converged
      | Some u ->
          if checking then begin
            if snap = None then s.checked <- s.checked + 1;
            let fast = fast_candidates cfg ctx s.witness u in
            let reference =
              naive_candidates cfg ~ws:(Lazy.force s.shadow_ws) s.g u
            in
            if Sentinel.moves_equal fast reference then
              match pick_from cfg s.rng s.g fast with
              | None -> happy_violation s u
              | Some e -> finish_step s u e ~next_mode:Mode_fast
            else begin
              note_incident s (Sentinel.Move_set { agent = u; fast; reference });
              s.degraded_at <- Some s.steps;
              (* caught before any tie-break draw: picking from the
                 reference list keeps the trajectory bit-identical to a
                 pure reference run *)
              match pick_from cfg s.rng s.g reference with
              | None -> happy_violation s u
              | Some e -> finish_step s u e ~next_mode:Mode_degraded
            end
          end
          else
            match choose_move cfg s.rng ctx s.witness s.g u with
            | None -> happy_violation s u
            | Some e -> finish_step s u e ~next_mode:Mode_fast)

let fast_step s =
  let cfg = s.cfg in
  (* One context per step.  With the incremental cache it inherits all
     tables that survived (were kept or repaired by) the previous step's
     patch; without, tables describe the current network only for this
     step and are discarded wholesale.  The witness cache survives across
     steps either way — probes revalidate. *)
  let ctx =
    match s.cache with
    | Some c -> Response.Fast.of_cache s.ws cfg.model s.g c
    | None -> Response.Fast.create s.ws cfg.model s.g
  in
  (* The admission caps ride with the output-sensitive step loop: the
     [sublinear:false] baseline keeps the historical uncapped enumeration
     (identical moves either way — the caps only skip provably
     over-budget candidate scans). *)
  Response.Fast.set_prefilter ctx cfg.sublinear;
  refresh_board s ctx;
  match board_violation s with
  | Some v -> s.stopped <- Some (Invariant_violation v)
  | None -> fast_move s ctx

(* The degraded remainder: the naive machinery verbatim (cf.
   [Reference.run]) on the live RNG — graceful degradation, not a
   crash. *)
let degraded_step s =
  match
    Policy.select s.cfg.policy ~rng:s.rng ~ws:s.ws s.cfg.model s.g ~last:s.last
  with
  | None -> s.stopped <- Some Converged
  | Some u -> ref_move s u

let stepper_advance s =
  if s.steps >= s.cfg.max_steps then s.stopped <- Some Step_limit
  else if
    match s.deadline with
    | None -> false
    | Some d -> Clock.monotonic () > d
  then s.stopped <- Some Time_limit
  else
    match s.mode with
    | Mode_fast -> fast_step s
    | Mode_degraded -> degraded_step s

let rec stepper_run s =
  match s.stopped with
  | Some reason -> reason
  | None ->
      stepper_advance s;
      stepper_run s

let stepper_finish s reason =
  let reason =
    (* Whatever the sampling level, always audit the final state. *)
    match reason with
    | Invariant_violation _ -> reason
    | Converged | Cycle_detected _ | Step_limit | Time_limit -> (
        if s.cfg.audit = Audit.Off then reason
        else
          match audit_graph s s.steps with
          | Some v -> Invariant_violation v
          | None -> reason)
  in
  let sentinel =
    {
      Sentinel.checked = s.checked;
      incidents = List.rev s.incidents;
      degraded_at = s.degraded_at;
    }
  in
  let cache_stats, residency =
    match s.cache with
    | Some c -> (Distcache.stats c, Distcache.residency c)
    | None -> (Distcache.zero_stats, Distcache.zero_residency)
  in
  update_totals (fun t ->
      {
        t with
        trials = t.trials + 1;
        cache = Distcache.add_stats t.cache cache_stats;
        peak_tables = max t.peak_tables residency.Distcache.peak;
        peak_bytes = max t.peak_bytes residency.Distcache.peak_bytes;
      });
  (match s.arena with
  | Some a ->
      Arena.retire a ~cache_stats ?board:s.board ?cache:s.cache s.witness s.seen
  | None -> ());
  {
    reason;
    steps = s.steps;
    history = List.rev s.history;
    final = s.g;
    sentinel;
    cache = cache_stats;
    residency;
  }

let run ?arena ?rng cfg initial =
  let s = stepper_start ?arena ?rng cfg initial in
  stepper_finish s (stepper_run s)

let converged r = match r.reason with
  | Converged -> true
  | Cycle_detected _ | Step_limit | Time_limit | Invariant_violation _ ->
      false
