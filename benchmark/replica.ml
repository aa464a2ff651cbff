(* The engine's fast step, re-driven from the layers' public functions.

   [Engine.run] exposes no per-step or per-phase timings, so the traced
   benchmark run replays its step loop call for call — the same context,
   board refresh, selection, candidate scan, tie-break, pin/apply/patch,
   witness clear and cycle key, in the same order and with the same RNG
   draws — and records one span around each call.  A trace of a different
   program supports nothing, so every traced run also runs [Engine.run]
   on the same input and fails on any difference in the trajectory
   ([matches]).  Supported: the configurations the benchmark runs —
   incremental cache on, audit, sentinel and time budget off, one scan
   domain. *)

open Ncg_graph
open Ncg_game
open Ncg_core

(* Trial-scoped resources kept across the trials of one size and cache
   budget and reset between them, as [Engine.Arena] pools them. *)
type pool = {
  n : int;
  budget : int option;
  ws : Paths.Workspace.t;
  witness : Witness.t;
  cache : Distcache.t;
  board : Costboard.t;
  seen : (string, int) Hashtbl.t;
}

let create_pool ?budget n =
  {
    n;
    budget;
    ws = Paths.Workspace.create n;
    witness = Witness.create n;
    cache = Distcache.create ?budget n;
    board = Costboard.create n;
    seen = Hashtbl.create 64;
  }

(* Work counted at the layer boundaries, summed over every replayed
   trial. *)
type counters = {
  mutable steps : int;
  mutable board_updates : int;
  mutable dirty_refreshes : int;  (* incremental board refreshes *)
  mutable dirty_share : float;  (* sum of dirty agents / n over those *)
  mutable scans : int;  (* candidate-scan calls *)
  mutable moves_len : int;  (* summed lengths of the scanned move lists *)
  mutable witness_hits : int;
  mutable witness_scans : int;
  mutable witness_skips : int;
  mutable cache : Distcache.stats;
  mutable peak_tables : int;
  mutable peak_bytes : int;
}

let counters () =
  {
    steps = 0;
    board_updates = 0;
    dirty_refreshes = 0;
    dirty_share = 0.0;
    scans = 0;
    moves_len = 0;
    witness_hits = 0;
    witness_scans = 0;
    witness_skips = 0;
    cache = Distcache.zero_stats;
    peak_tables = 0;
    peak_bytes = 0;
  }

type result = {
  reason : Engine.stop_reason;
  steps : int;
  final : Graph.t;
  moves : Move.t list;  (** chronological *)
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

let pick_from (cfg : Engine.config) rng g moves =
  match cfg.Engine.move_rule with
  | Engine.Any_improving -> pick_uniform rng moves
  | Engine.Best_response -> (
      match cfg.Engine.tie_break with
      | Engine.First_candidate -> (
          match moves with [] -> None | e :: _ -> Some e)
      | Engine.Uniform -> pick_uniform rng moves
      | Engine.Prefer_deletion ->
          let rank e = kind_rank (Move.classify_effect g e.Response.move) in
          let min_rank =
            List.fold_left (fun acc e -> min acc (rank e)) max_int moves
          in
          pick_uniform rng (List.filter (fun e -> rank e = min_rank) moves))

let state_key model g =
  if Model.uses_ownership model then Canonical.key g else Canonical.unowned_key g

let add_stats (a : Distcache.stats) (b : Distcache.stats) =
  {
    Distcache.kept = a.Distcache.kept + b.Distcache.kept;
    repaired = a.Distcache.repaired + b.Distcache.repaired;
    rebuilt = a.Distcache.rebuilt + b.Distcache.rebuilt;
    fills = a.Distcache.fills + b.Distcache.fills;
    evicted = a.Distcache.evicted + b.Distcache.evicted;
  }

let run ?trace ~pool ~counters:(k : counters) ~rng (cfg : Engine.config)
    initial =
  let n = Graph.n initial in
  if
    cfg.Engine.audit <> Audit.Off
    || cfg.Engine.sentinel <> Sentinel.Off
    || cfg.Engine.time_budget <> None
    || (not cfg.Engine.incremental)
    || cfg.Engine.scan_domains <> 1
  then invalid_arg "Replica.run: unsupported engine configuration";
  if pool.n <> n || pool.budget <> cfg.Engine.cache_budget then
    invalid_arg "Replica.run: pool does not match the trial";
  Witness.reset pool.witness;
  Distcache.reset pool.cache;
  Costboard.reset pool.board;
  Hashtbl.reset pool.seen;
  let model = cfg.Engine.model in
  let cache = pool.cache and witness = pool.witness and ws = pool.ws in
  let g = Graph.copy initial in
  let board =
    match cfg.Engine.policy with
    | Policy.Max_cost when cfg.Engine.sublinear -> Some pool.board
    | _ -> None
  in
  let sp phase ~parent f =
    match trace with None -> f () | Some t -> Trace.span t phase ~parent f
  in
  if cfg.Engine.detect_cycles then Hashtbl.replace pool.seen (state_key model g) 0;
  let board_ready = ref false in
  let steps = ref 0 and last = ref None and moves = ref [] in
  let stopped = ref None in
  while !stopped = None do
    if !steps >= cfg.Engine.max_steps then stopped := Some Engine.Step_limit
    else begin
      let step =
        match trace with None -> -1 | Some t -> Trace.open_ t Trace.Step ~parent:(-1)
      in
      let ctx =
        sp Trace.Ctx ~parent:step (fun () ->
            let ctx = Response.Fast.of_cache ws model g cache in
            Response.Fast.set_prefilter ctx cfg.Engine.sublinear;
            ctx)
      in
      let picked =
        match board with
        | Some b ->
            sp Trace.Board ~parent:step (fun () ->
                if not !board_ready then begin
                  for v = 0 to n - 1 do
                    Costboard.update b v (Response.Fast.cost_key ctx v)
                  done;
                  k.board_updates <- k.board_updates + n;
                  board_ready := true
                end
                else begin
                  let dirty = Distcache.dirty_count cache in
                  k.board_updates <- k.board_updates + dirty;
                  k.dirty_refreshes <- k.dirty_refreshes + 1;
                  k.dirty_share <-
                    k.dirty_share +. (float_of_int dirty /. float_of_int n);
                  Distcache.iter_dirty
                    (fun v -> Costboard.update b v (Response.Fast.cost_key ctx v))
                    cache
                end;
                Distcache.clear_dirty cache);
            sp Trace.Select ~parent:step (fun () ->
                Policy.select_sublinear cfg.Engine.policy ~rng ~ctx ~witness
                  ~board:b model g ~last:!last)
        | None ->
            sp Trace.Select ~parent:step (fun () ->
                Policy.select_fast cfg.Engine.policy ~rng ~ctx ~witness
                  ~domains:1 model g ~last:!last)
      in
      (match picked with
      | None -> stopped := Some Engine.Converged
      | Some u -> (
          let candidates =
            sp Trace.Scan ~parent:step (fun () ->
                match cfg.Engine.move_rule with
                | Engine.Any_improving -> Response.Fast.improving_moves ctx u
                | Engine.Best_response ->
                    Response.Fast.best_moves ?prior:(Witness.get witness u) ctx u)
          in
          k.scans <- k.scans + 1;
          k.moves_len <- k.moves_len + List.length candidates;
          let chosen =
            sp Trace.Tie ~parent:step (fun () ->
                match pick_from cfg rng g candidates with
                | None -> None
                | Some e ->
                    ignore (Move.classify_effect g e.Response.move);
                    Some e)
          in
          match chosen with
          | None ->
              stopped :=
                Some
                  (Engine.Invariant_violation
                     {
                       Audit.kind = Audit.Happy_agent_selected;
                       step = !steps;
                       subject = Some u;
                       detail =
                         Printf.sprintf
                           "policy selected agent %d with no improving move" u;
                     })
          | Some e ->
              let move = e.Response.move in
              let pinned =
                sp Trace.Pin ~parent:step (fun () ->
                    match board with
                    | None -> []
                    | Some _ ->
                        let touched = Move.touched g move in
                        List.iter
                          (fun v ->
                            ignore (Distcache.ensure cache ~ws g v);
                            Distcache.pin cache v)
                          touched;
                        touched)
              in
              let apply =
                match trace with
                | None -> -1
                | Some t -> Trace.open_ t Trace.Apply ~parent:step
              in
              ignore
                (Move.apply_observed g move ~on_prim:(fun prim ->
                     sp Trace.Patch ~parent:apply (fun () ->
                         match prim with
                         | Move.Added (a, b) -> Distcache.note_added cache g a b
                         | Move.Removed (a, b, _) ->
                             Distcache.note_removed cache g a b)));
              Option.iter (fun t -> Trace.close t apply) trace;
              if pinned <> [] then
                sp Trace.Pin ~parent:step (fun () ->
                    List.iter (fun v -> Distcache.unpin cache v) pinned);
              sp Trace.Clear ~parent:step (fun () -> Witness.clear witness u);
              moves := move :: !moves;
              incr steps;
              if cfg.Engine.detect_cycles then
                sp Trace.Key ~parent:step (fun () ->
                    let key = state_key model g in
                    match Hashtbl.find_opt pool.seen key with
                    | Some first_visit ->
                        stopped :=
                          Some
                            (Engine.Cycle_detected
                               { first_visit; period = !steps - first_visit })
                    | None ->
                        Hashtbl.replace pool.seen key !steps;
                        last := Some u)
              else last := Some u));
      Option.iter (fun t -> Trace.close t step) trace
    end
  done;
  let stats = Distcache.stats cache and residency = Distcache.residency cache in
  k.steps <- k.steps + !steps;
  k.witness_hits <- k.witness_hits + Witness.hits witness;
  k.witness_scans <- k.witness_scans + Witness.scans witness;
  k.witness_skips <- k.witness_skips + Witness.skips witness;
  k.cache <- add_stats k.cache stats;
  k.peak_tables <- max k.peak_tables residency.Distcache.peak;
  k.peak_bytes <- max k.peak_bytes residency.Distcache.peak_bytes;
  Option.iter Trace.next_trial trace;
  {
    reason = Option.get !stopped;
    steps = !steps;
    final = g;
    moves = List.rev !moves;
    cache = stats;
    residency;
  }

(* Same trajectory as the engine's run: step count, stop reason, final
   network, distance-cache decisions and residency, and — when the engine
   recorded its history — every move. *)
let matches r (e : Engine.result) =
  r.steps = e.Engine.steps
  && r.reason = e.Engine.reason
  && Graph.equal r.final e.Engine.final
  && r.cache = e.Engine.cache
  && r.residency = e.Engine.residency
  && (e.Engine.history = []
     || List.equal Move.equal r.moves
          (List.map (fun s -> s.Engine.move) e.Engine.history))
