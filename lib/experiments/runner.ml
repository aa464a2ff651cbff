type spec = {
  model : Model.t;
  generate : Random.State.t -> Graph.t;
  policy : Policy.t;
  tie_break : Engine.tie_break;
  max_steps : int;
  detect_cycles : bool;
  audit : Audit.level;
  sentinel : Sentinel.level;
  time_budget : float option;
  max_retries : int;
}

let spec ?(policy = Policy.Max_cost) ?(tie_break = Engine.Uniform) ?max_steps
    ?(detect_cycles = true) ?(audit = Audit.Off) ?(sentinel = Sentinel.Off)
    ?time_budget ?(max_retries = 0) model generate =
  if max_retries < 0 then invalid_arg "Runner.spec: max_retries < 0";
  let max_steps =
    match max_steps with
    | Some s -> s
    | None -> (50 * Model.n model) + 2000
  in
  { model; generate; policy; tie_break; max_steps; detect_cycles; audit;
    sentinel; time_budget; max_retries }

(* Attempt 0 keeps the historical derivation (so existing seeds reproduce
   published numbers bit for bit); retries fold the attempt index in as a
   fresh sub-seed.  Each (seed, trial, attempt) triple seeds a private
   stream by state-splitting — never by drawing from a shared stream — so
   trial i's draws are identical whether it runs alone, after other trials
   on a shared arena, on any shard of any fleet, or after a resume. *)
let trial_rng t ~seed ~trial ~attempt =
  if attempt = 0 then Random.State.make [| seed; trial; Model.n t.model |]
  else Random.State.make [| seed; trial; Model.n t.model; attempt |]

let backoff_budget budget ~attempt =
  Option.map (fun b -> b *. (2. ** float_of_int attempt)) budget

let engine_config t ~attempt =
  Engine.config ~policy:t.policy ~tie_break:t.tie_break
    ~max_steps:t.max_steps ~detect_cycles:t.detect_cycles
    ~record_history:false ~audit:t.audit ~sentinel:t.sentinel
    ?time_budget:(backoff_budget t.time_budget ~attempt)
    t.model

let run_attempt ?arena t ~seed ~trial ~attempt =
  let rng = trial_rng t ~seed ~trial ~attempt in
  let g = t.generate rng in
  Engine.run ?arena ~rng (engine_config t ~attempt) g

let run_trial ?arena t ~seed ~trial = run_attempt ?arena t ~seed ~trial ~attempt:0

(* A retry is only worth burning time on when the failure could be
   transient or attempt-specific: a crash, a wall-clock timeout (the
   budget backs off), or an invariant fault (a fresh sub-seed walks a
   different trajectory).  Converged/cycle/step-limit are honest,
   deterministic results. *)
let retryable = function
  | Stats.Crashed _ -> true
  | Stats.Finished
      { reason = Engine.Time_limit | Engine.Invariant_violation _; _ } ->
      true
  | Stats.Finished _ -> false

let verdict_of_attempt ?arena t ~seed ~trial ~attempt =
  match run_attempt ?arena t ~seed ~trial ~attempt with
  | r ->
      ( Stats.Finished { reason = r.Engine.reason; steps = r.Engine.steps },
        r.Engine.sentinel )
  | exception exn ->
      let backtrace = Printexc.get_raw_backtrace () in
      ( Stats.Crashed
          {
            exn = Printexc.to_string exn;
            backtrace = Printexc.raw_backtrace_to_string backtrace;
          },
        Sentinel.clean_report )

(* Every attempt of one trial, first and retry alike, on the caller's
   arena: retry while the verdict is retryable and attempts remain. *)
let trial_outcome ?arena t ~seed ~trial =
  let rec go attempt divergences =
    let verdict, sentinel = verdict_of_attempt ?arena t ~seed ~trial ~attempt in
    let divergences = divergences @ sentinel.Sentinel.incidents in
    if retryable verdict && attempt < t.max_retries then
      go (attempt + 1) divergences
    else
      ( Stats.of_verdict ~attempts:(attempt + 1)
          ~degraded:(divergences <> [])
          ~quarantined:(t.max_retries > 0 && retryable verdict)
          verdict,
        divergences )
  in
  go 0 []

(* Cooperative interruption: a signal handler flips the flag; sweeps honor
   it at batch boundaries, after the completed batch has been recorded.
   The triggering signal is kept so the process can exit with the
   signal-accurate conventional code (130 for SIGINT, 143 for SIGTERM). *)
let stop_flag = Atomic.make false
let stop_signal_ = Atomic.make 0

let request_stop ?signal () =
  (match signal with Some s -> Atomic.set stop_signal_ s | None -> ());
  Atomic.set stop_flag true

let stop_requested () = Atomic.get stop_flag

let stop_signal () =
  match Atomic.get stop_signal_ with 0 -> None | s -> Some s

let reset_stop () =
  Atomic.set stop_flag false;
  Atomic.set stop_signal_ 0

exception Interrupted

let run_outcomes ?(domains = 1) ?(seed = 2013) ?checkpoint ?(key = "")
    ?incidents ?range ?on_batch ~trials t =
  let lo, hi =
    match range with
    | None -> (0, trials)
    | Some (lo, hi) ->
        if lo < 0 || hi > trials || lo > hi then
          invalid_arg "Runner.run_outcomes: range outside [0, trials]";
        (lo, hi)
  in
  let outcomes = Array.make trials None in
  (match checkpoint with
  | None -> ()
  | Some cp ->
      List.iter
        (fun (trial, outcome) ->
          if trial >= lo && trial < hi then outcomes.(trial) <- Some outcome)
        (Checkpoint.completed cp ~key));
  let pending =
    Array.of_list
      (List.filter
         (fun trial -> outcomes.(trial) = None)
         (List.init (hi - lo) (fun i -> lo + i)))
  in
  (* One resident arena per domain slot, reused across batches: it
     amortizes workspace/cache/witness allocation over every trial that
     slot ever runs.  Slots of one batch run on distinct domains, and
     [Pool.map_result]'s join orders each batch's arena mutations before
     the next batch reads them, so reuse is race-free. *)
  let slots = max 1 domains in
  let arenas =
    Array.init slots (fun _ -> lazy (Engine.Arena.create (Model.n t.model)))
  in
  let record trial (outcome, divergences) =
    outcomes.(trial) <- Some outcome;
    (match checkpoint with
    | Some cp -> Checkpoint.record cp ~key ~trial outcome
    | None -> ());
    match incidents with
    | None -> ()
    | Some log ->
        List.iter
          (fun incident ->
            Incident_log.record log
              (Incident_log.Divergence { key; trial; incident }))
          divergences;
        if outcome.Stats.degraded then
          Incident_log.record log
            (Incident_log.Degraded { key; trial; outcome });
        if outcome.Stats.quarantined then
          Incident_log.record log
            (Incident_log.Quarantined { key; trial; outcome })
  in
  (* Pending trials run in batches of [8 * domains], each split over the
     domain slots in contiguous chunks.  A batch is recorded (to the
     checkpoint, when there is one) before the next starts, and a stop
     request is honored after each, so an interruption takes effect
     within one batch and loses at most the batch in flight. *)
  let batch_size = 8 * slots in
  let rec go start =
    if start < Array.length pending then begin
      let batch =
        Array.to_list
          (Array.sub pending start
             (min batch_size (Array.length pending - start)))
      in
      let chunks =
        Ncg_parallel.Pool.chunk (min slots (List.length batch)) batch
      in
      let captured =
        Ncg_parallel.Pool.map_result ~domains
          (fun (slot, chunk) ->
            let arena = Lazy.force arenas.(slot) in
            List.map (fun trial -> trial_outcome ~arena t ~seed ~trial) chunk)
          (List.mapi (fun slot chunk -> (slot, chunk)) chunks)
      in
      List.iter2
        (fun chunk capture ->
          match capture with
          | Ok pairs -> List.iter2 record chunk pairs
          | Error (exn, backtrace) ->
              (* [trial_outcome] captures trial exceptions itself; this
                 only fires if the harness around it fails *)
              let crashed =
                Stats.of_verdict
                  (Stats.Crashed
                     {
                       exn = Printexc.to_string exn;
                       backtrace = Printexc.raw_backtrace_to_string backtrace;
                     })
              in
              List.iter (fun trial -> record trial (crashed, [])) chunk)
        chunks captured;
      Option.iter (fun f -> f ()) on_batch;
      if Atomic.get stop_flag then raise Interrupted;
      go (start + batch_size)
    end
  in
  go 0;
  List.init (hi - lo) (fun i ->
      match outcomes.(lo + i) with
      | Some o -> o
      | None -> assert false (* every index is completed or pending *))

let run ?domains ?seed ?checkpoint ?key ?incidents ~trials t =
  Stats.summarize_outcomes
    (run_outcomes ?domains ?seed ?checkpoint ?key ?incidents ~trials t)
