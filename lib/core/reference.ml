(* The naive dynamics loop, kept verbatim as the differential oracle for
   the fast engine.  Any behavioural edit here must be mirrored in
   [Engine.run] (and vice versa) — the differential suite asserts the two
   produce byte-identical trajectories. *)

let kind_rank = function
  | Move.Kdelete -> 0
  | Move.Kswap -> 1
  | Move.Kbuy -> 2
  | Move.Kjump -> 3

let pick_uniform rng = function
  | [] -> None
  | moves -> Some (List.nth moves (Random.State.int rng (List.length moves)))

(* Choose the move the selected agent performs. *)
let choose_move (cfg : Engine.config) rng g u =
  let open Response in
  match cfg.move_rule with
  | Engine.Any_improving -> pick_uniform rng (improving_moves cfg.model g u)
  | Engine.Best_response -> (
      let best = best_moves cfg.model g u in
      match cfg.tie_break with
      | Engine.First_candidate -> (
          match best with [] -> None | e :: _ -> Some e)
      | Engine.Uniform -> pick_uniform rng best
      | Engine.Prefer_deletion ->
          let rank e = kind_rank (Move.classify_effect g e.move) in
          let min_rank =
            List.fold_left (fun acc e -> min acc (rank e)) max_int best
          in
          pick_uniform rng (List.filter (fun e -> rank e = min_rank) best))

let run ?rng (cfg : Engine.config) initial =
  let rng =
    match rng with
    | Some r -> r
    | None -> Random.State.make [| 0x5eed; Graph.n initial |]
  in
  let g = Graph.copy initial in
  let ws = Paths.Workspace.create (Graph.n g) in
  let seen : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let state_key = Canonical.state_key ~owned:(Model.uses_ownership cfg.model) in
  if cfg.detect_cycles then Hashtbl.replace seen (state_key g) 0;
  let history = ref [] in
  let deadline =
    Option.map (fun b -> Clock.monotonic () +. b) cfg.time_budget
  in
  let out_of_time () =
    match deadline with
    | None -> false
    | Some d -> Clock.monotonic () > d
  in
  (* A connected network can never disconnect under improving moves (the
     mover's own cost would become infinite), so connectivity is part of
     the audited contract exactly when the run started connected. *)
  let require_connected = cfg.audit <> Audit.Off && Paths.is_connected g in
  let audit_graph step =
    match Audit.check_graph ~require_connected ~step cfg.model g with
    | [] -> None
    | v :: _ -> Some v
  in
  let rec loop step last =
    if step >= cfg.max_steps then (Engine.Step_limit, step)
    else if out_of_time () then (Engine.Time_limit, step)
    else
      match Policy.select cfg.policy ~rng ~ws cfg.model g ~last with
      | None -> (Engine.Converged, step)
      | Some u -> (
          match choose_move cfg rng g u with
          | None ->
              (* The policy contract promises only unhappy agents, so an
                 improving move must exist; surface the breach as a typed
                 violation rather than crashing the whole sweep. *)
              ( Engine.Invariant_violation
                  {
                    Audit.kind = Audit.Happy_agent_selected;
                    step;
                    subject = Some u;
                    detail =
                      Printf.sprintf
                        "policy selected agent %d with no improving move" u;
                  },
                step )
          | Some e ->
              let effect = Move.classify_effect g e.Response.move in
              let contract =
                if cfg.audit = Audit.Off then None
                else
                  Audit.check_move ~step cfg.model ~mover:u
                    ~before:e.Response.before ~after:e.Response.after
              in
              (match contract with
              | Some v -> (Engine.Invariant_violation v, step)
              | None -> (
                  ignore (Move.apply g e.Response.move);
                  if cfg.record_history then
                    history :=
                      {
                        Engine.index = step;
                        move = e.Response.move;
                        effect;
                        cost_before = e.Response.before;
                        cost_after = e.Response.after;
                      }
                      :: !history;
                  let step = step + 1 in
                  match
                    if Audit.should_check cfg.audit step then audit_graph step
                    else None
                  with
                  | Some v -> (Engine.Invariant_violation v, step)
                  | None ->
                      if cfg.detect_cycles then begin
                        let key = state_key g in
                        match Hashtbl.find_opt seen key with
                        | Some first_visit ->
                            ( Engine.Cycle_detected
                                { first_visit; period = step - first_visit },
                              step )
                        | None ->
                            Hashtbl.replace seen key step;
                            loop step (Some u)
                      end
                      else loop step (Some u))))
  in
  let reason, steps = loop 0 None in
  let reason =
    (* Whatever the sampling level, always audit the final state. *)
    match reason with
    | Engine.Invariant_violation _ -> reason
    | Engine.Converged | Engine.Cycle_detected _ | Engine.Step_limit
    | Engine.Time_limit -> (
        if cfg.audit = Audit.Off then reason
        else
          match audit_graph steps with
          | Some v -> Engine.Invariant_violation v
          | None -> reason)
  in
  { Engine.reason;
    steps;
    history = List.rev !history;
    final = g;
    sentinel = Sentinel.clean_report;
    cache = Distcache.zero_stats;
    residency = Distcache.zero_residency }
