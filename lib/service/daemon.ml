let fingerprint = "ncg-serve-1"

type config = {
  socket_path : string;
  worker_argv : string array;
  workers : int;
  lease_dir : string;
  max_queue : int;
  max_wait : float;
  max_attempts : int;
  retry_base : float;
  heartbeat_interval : float;
  heartbeat_timeout : float;
  deadline_grace : float;
  drain_grace : float;
  cache_capacity : int;
  canon_budget : int;
  max_n : int;
  incidents : Incident_log.t option;
  tick_interval : float;
  frame_timeout : float;
}

let config ?(workers = 2) ?(max_queue = 64) ?(max_wait = 30.0)
    ?(max_attempts = 3) ?(retry_base = 0.25) ?(heartbeat_interval = 0.5)
    ?(heartbeat_timeout = 3.0) ?(deadline_grace = 1.0) ?(drain_grace = 30.0)
    ?(cache_capacity = 512) ?(canon_budget = 200_000) ?(max_n = 96)
    ?incidents ?(tick_interval = 0.05) ?(frame_timeout = 30.0) ~socket_path
    ~worker_argv ~lease_dir () =
  if workers < 1 then invalid_arg "Daemon.config: workers must be >= 1";
  if max_queue < 1 then invalid_arg "Daemon.config: max_queue must be >= 1";
  if max_attempts < 1 then
    invalid_arg "Daemon.config: max_attempts must be >= 1";
  {
    socket_path;
    worker_argv;
    workers;
    lease_dir;
    max_queue;
    max_wait;
    max_attempts;
    retry_base;
    heartbeat_interval;
    heartbeat_timeout;
    deadline_grace;
    drain_grace;
    cache_capacity;
    canon_budget;
    max_n;
    incidents;
    tick_interval;
    frame_timeout;
  }

(* ------------------------------------------------------------------ *)
(* Worker process                                                      *)
(* ------------------------------------------------------------------ *)

(* The worker's resident arena, kept across jobs and re-created only when
   the network size changes: every job runs its trials through it one
   after another, so a long-lived worker pays the workspace/cache/witness
   allocations once per size, not once per trial. *)
let worker_arena : (int * Engine.Arena.t) option ref = ref None

let arena_for n =
  match !worker_arena with
  | Some (m, a) when m = n -> a
  | _ ->
      let a = Engine.Arena.create n in
      worker_arena := Some (n, a);
      a

let run_job (job : Proto.job) ~budget =
  let n = Proto.host_n job.Proto.host in
  let host_graph =
    match job.Proto.host with
    | Proto.Complete _ -> None
    | Proto.Edges (n, pairs) -> Some (Graph.of_unowned_edges n pairs)
  in
  let host =
    match host_graph with
    | None -> Host.complete n
    | Some g -> Host.of_graph g
  in
  let model =
    Model.make ~alpha:job.Proto.alpha ~host job.Proto.game job.Proto.dist n
  in
  (* Runner's seeding contract, so a trial draws the network and moves a
     local Runner batch would on the same parameters.  The step limit is
     not Runner's: a job without [max_steps] runs under [Engine.config]'s
     100n + 1000 steps, where [Runner.spec] defaults to 50n + 2000. *)
  let runner =
    Runner.spec model (fun rng ->
        match host_graph with
        | None -> Gen.random_connected rng n job.Proto.edge_prob
        | Some h -> Gen.random_host_network rng h job.Proto.edge_prob)
  in
  let start = Clock.monotonic () in
  let remaining () =
    Option.map (fun b -> b -. (Clock.monotonic () -. start)) budget
  in
  let outcomes = ref [] in
  let deadline_hit = ref false in
  let arena = arena_for n in
  (* Strictly sequential, so each trial runs under the budget left after
     its predecessors, as deadline semantics require; without a budget
     [remaining ()] is [None] and every trial runs unbounded.  A raising
     trial fails the whole job. *)
  (try
     for trial = 0 to job.Proto.trials - 1 do
       let left = remaining () in
       (match left with
       | Some r when r <= 0.0 ->
           deadline_hit := true;
           raise Exit
       | _ -> ());
       let rng =
         Runner.trial_rng runner ~seed:job.Proto.seed ~trial ~attempt:0
       in
       let g = runner.Runner.generate rng in
       let cfg =
         Engine.config ~policy:job.Proto.policy ~tie_break:job.Proto.tie_break
           ~detect_cycles:true ~record_history:false
           ?max_steps:job.Proto.max_steps ?time_budget:left model
       in
       let result = Engine.run ~arena ~rng cfg g in
       outcomes := Stats.outcome_of_result result :: !outcomes;
       match result.Engine.reason with
       | Engine.Time_limit ->
           (* the only clock a service trial runs under is the job's
              remaining deadline, so Time_limit means the job is out *)
           deadline_hit := true;
           raise Exit
       | _ -> ()
     done
   with Exit -> ());
  let summary =
    Proto.summary_to_json (Stats.summarize_outcomes (List.rev !outcomes))
  in
  if !deadline_hit then Proto.Deadline summary else Proto.Done summary

let run_job_line line =
  match Json.parse line with
  | exception Json.Parse_error m -> (0, Proto.Failed ("bad job frame: " ^ m))
  | j -> (
      let id =
        match Option.bind (Json.member "job_id" j) Json.to_int with
        | Some id -> id
        | None -> 0
      in
      match Proto.job_of_json j with
      | Error m -> (id, Proto.Failed m)
      | Ok job -> (
          let budget =
            Option.bind (Json.member "budget" j) Json.to_float_opt
          in
          match run_job job ~budget with
          | r -> (id, r)
          | exception exn -> (id, Proto.Failed (Printexc.to_string exn))))

(* The worker's process totals, attached to every result frame (as its
   ["batch"] field, the wire name) so the daemon can surface per-worker
   cache behavior through the [stats] op.  Cumulative since the worker
   process started — a respawned worker starts over, and the daemon
   always keeps the latest frame.  A worker runs every trial on its
   arena, so [batched_trials] is its trial count. *)
let totals_json () =
  let t = Engine.totals () in
  Json.Obj
    [
      ("arenas", Json.Int t.Engine.arenas);
      ("batched_trials", Json.Int t.Engine.trials);
      ("kept", Json.Int t.Engine.cache.Distcache.kept);
      ("repaired", Json.Int t.Engine.cache.Distcache.repaired);
      ("rebuilt", Json.Int t.Engine.cache.Distcache.rebuilt);
      ("fills", Json.Int t.Engine.cache.Distcache.fills);
      ("evicted", Json.Int t.Engine.cache.Distcache.evicted);
    ]

let worker_main ~slot ~lease_dir ~heartbeat_interval () =
  let stop = Atomic.make false in
  let _hb : Thread.t =
    Thread.create
      (fun () ->
        (* The daemon assigned the slot before spawning us, so whatever
           owner the lease names is a previous incarnation: claim it. *)
        (match Supervisor.claim ~dir:lease_dir ~fingerprint ~shard:slot with
        | Ok _ -> ()
        | Error _ -> exit 0);
        while not (Atomic.get stop) do
          Sysx.sleepf heartbeat_interval;
          match Supervisor.beat ~dir:lease_dir ~fingerprint ~shard:slot with
          | Ok () -> ()
          | Error _ -> exit 0 (* fenced: the daemon reassigned this slot *)
        done)
      ()
  in
  let rdr = Proto.Line_reader.create Unix.stdin in
  let rec loop () =
    match Proto.Line_reader.line rdr with
    | None -> ()
    | Some line ->
        let id, result = run_job_line line in
        Proto.send_line Unix.stdout
          (Proto.worker_result_to_json ~batch:(totals_json ()) ~id
             result);
        loop ()
  in
  (try loop () with Unix.Unix_error _ -> ());
  Atomic.set stop true

(* ------------------------------------------------------------------ *)
(* Daemon state                                                        *)
(* ------------------------------------------------------------------ *)

type conn = {
  fd : Unix.file_descr;
  wmu : Mutex.t;
  mutable wclosed : bool;
  mutable eof : bool;
  mutable pending : int;  (* outcomes still owed to this client *)
}

type jstate = Queued | Backoff | Busy | Finished

type job = {
  id : int;
  tag : Json.t;
  payload : Proto.job;
  canon_host : Proto.host;
  cache_key : string option;
  enqueued : float;  (* monotonic *)
  deadline_at : float option;  (* monotonic *)
  conn : conn;
  mutable attempts : int;
  mutable retry_at : float;
  mutable state : jstate;
}

type slot = {
  index : int;
  mutable pid : int;
  mutable to_worker : Unix.file_descr;
  mutable alive : bool;
  mutable job : job option;
  mutable batch_stats : Json.t option;
      (* latest process totals reported by this slot's worker *)
}

type t = {
  cfg : config;
  mu : Mutex.t;
  cond : Condition.t;
  queue : job Queue.t;
  mutable backoff : job list;
  slots : slot array;
  cache : Json.t Cache.t;
  metrics : Metrics.t;
  mutable draining : bool;
  mutable drain_started : float;
  mutable stopping : bool;
  mutable stop_signal : int option;
  mutable next_id : int;
  mutable listen_fd : Unix.file_descr option;
}

let conn_send conn json =
  Mutex.lock conn.wmu;
  (if not conn.wclosed then
     try Proto.send_line conn.fd json
     with Unix.Unix_error _ | Sys_error _ -> conn.wclosed <- true);
  Mutex.unlock conn.wmu

let conn_close_if_done conn =
  Mutex.lock conn.wmu;
  (if conn.eof && conn.pending = 0 && not conn.wclosed then begin
     conn.wclosed <- true;
     try Unix.close conn.fd with Unix.Unix_error _ -> ()
   end);
  Mutex.unlock conn.wmu

let conn_release conn =
  Mutex.lock conn.wmu;
  conn.pending <- conn.pending - 1;
  Mutex.unlock conn.wmu;
  conn_close_if_done conn

(* Terminal transition — the exactly-once point.  Every path that ends a
   job goes through here; the [Finished] guard makes the race between a
   worker result, the deadline backstop and a worker death harmless. *)
let finish_job t job reply ~counter ~latency_of =
  if job.state <> Finished then begin
    job.state <- Finished;
    Metrics.incr t.metrics counter;
    (match latency_of with
    | Some started ->
        Metrics.observe t.metrics (Clock.monotonic () -. started)
    | None -> ());
    conn_send job.conn reply;
    conn_release job.conn
  end

let finish_completed t job ~cached summary =
  (* Only deterministic summaries enter the cache: a run truncated by
     the wall clock ([timed_out] > 0) depends on machine speed, and a
     cached copy of it would not be bit-identical to a fresh run. *)
  (match job.cache_key with
  | Some key when not cached ->
      let deterministic =
        match Json.member "timed_out" summary with
        | Some (Json.Int 0) -> true
        | _ -> false
      in
      if deterministic then Cache.add t.cache key summary
  | _ -> ());
  finish_job t job
    (Proto.outcome_completed ~id:job.id ~tag:job.tag ~attempts:job.attempts
       ~cached ~summary)
    ~counter:"completed"
    ~latency_of:(Some job.enqueued)

let finish_deadline t job summary =
  finish_job t job
    (Proto.outcome_deadline_exceeded ~id:job.id ~tag:job.tag
       ~attempts:job.attempts ~summary)
    ~counter:"deadline_exceeded" ~latency_of:None

let finish_faulted t job ~cause =
  finish_job t job
    (Proto.outcome_faulted ~id:job.id ~tag:job.tag ~attempts:job.attempts
       ~cause)
    ~counter:"faulted" ~latency_of:None

(* ------------------------------------------------------------------ *)
(* Worker supervision                                                  *)
(* ------------------------------------------------------------------ *)

let log_incident t event =
  match t.cfg.incidents with
  | None -> ()
  | Some log -> ( try Incident_log.record log event with _ -> ())

(* Called with [t.mu] held.  Idempotent per worker generation: the
   reader thread (pipe EOF), the lease expiry check and a failed
   dispatch write can all report the same death. *)
let worker_down_locked t slot pid cause =
  if slot.alive && slot.pid = pid then begin
    slot.alive <- false;
    (try Unix.close slot.to_worker with Unix.Unix_error _ -> ());
    Supervisor.kill_and_reap pid;
    Metrics.incr t.metrics "worker_deaths";
    (match slot.job with
    | Some job when job.state = Busy ->
        slot.job <- None;
        log_incident t
          (Incident_log.Job_interrupted
             { job = job.id; pid; attempt = job.attempts; cause });
        if t.draining then
          finish_faulted t job ~cause:("worker died while draining: " ^ cause)
        else if job.attempts >= t.cfg.max_attempts then begin
          conn_send job.conn
            (Proto.incident ~id:job.id ~tag:job.tag ~cause
               ~attempt:job.attempts ~retry_in:None);
          finish_faulted t job
            ~cause:
              (Printf.sprintf "worker died on every attempt (last: %s)" cause)
        end
        else begin
          let delay =
            match
              Runner.backoff_budget (Some t.cfg.retry_base)
                ~attempt:(job.attempts - 1)
            with
            | Some d -> d
            | None -> t.cfg.retry_base
          in
          job.state <- Backoff;
          job.retry_at <- Clock.monotonic () +. delay;
          t.backoff <- job :: t.backoff;
          Metrics.incr t.metrics "retries";
          conn_send job.conn
            (Proto.incident ~id:job.id ~tag:job.tag ~cause
               ~attempt:job.attempts ~retry_in:(Some delay))
        end
    | Some _ -> slot.job <- None (* already finished by the backstop *)
    | None -> ());
    Condition.broadcast t.cond
  end

let worker_down t slot pid cause =
  Mutex.lock t.mu;
  worker_down_locked t slot pid cause;
  Mutex.unlock t.mu

let rec worker_reader t slot pid rdr =
  match Proto.Line_reader.line rdr with
  | exception _ -> worker_down t slot pid "worker pipe error"
  | None -> worker_down t slot pid "worker exited"
  | Some line ->
      (match Json.parse line with
      | exception Json.Parse_error _ -> ()
      | j -> (
          match Proto.worker_result_of_json j with
          | Error _ -> ()
          | Ok (id, result) ->
              Mutex.lock t.mu;
              (match Json.member "batch" j with
              | Some b when slot.alive && slot.pid = pid ->
                  slot.batch_stats <- Some b
              | _ -> ());
              (if slot.alive && slot.pid = pid then
                 match slot.job with
                 | Some job when job.id = id ->
                     slot.job <- None;
                     (match result with
                     | Proto.Done summary ->
                         finish_completed t job ~cached:false summary
                     | Proto.Deadline summary ->
                         finish_deadline t job (Some summary)
                     | Proto.Failed m ->
                         finish_faulted t job ~cause:("worker error: " ^ m));
                     Condition.broadcast t.cond
                 | _ -> ());
              Mutex.unlock t.mu));
      worker_reader t slot pid rdr

(* Called with [t.mu] held. *)
let spawn_worker_locked t slot =
  (* Assign before spawning: the new worker must never read the lease
     of the incarnation it replaces. *)
  Supervisor.assign ~dir:t.cfg.lease_dir ~fingerprint ~shard:slot.index ~lo:0
    ~hi:0;
  let jr, jw = Unix.pipe ~cloexec:true () in
  let rr, rw = Unix.pipe ~cloexec:true () in
  let argv =
    Array.append t.cfg.worker_argv
      [|
        string_of_int slot.index;
        t.cfg.lease_dir;
        string_of_float t.cfg.heartbeat_interval;
      |]
  in
  (* create_process dup2s [jr]/[rw] onto the child's stdin/stdout, which
     clears close-on-exec on the copies; every other daemon fd stays
     cloexec, so a worker never holds another worker's pipe ends open
     (that would mask the EOF that death detection relies on). *)
  let pid = Unix.create_process argv.(0) argv jr rw Unix.stderr in
  (try Unix.close jr with Unix.Unix_error _ -> ());
  (try Unix.close rw with Unix.Unix_error _ -> ());
  slot.pid <- pid;
  slot.to_worker <- jw;
  slot.alive <- true;
  slot.job <- None;
  let rdr = Proto.Line_reader.create rr in
  let _reader : Thread.t =
    Thread.create
      (fun () ->
        worker_reader t slot pid rdr;
        try Unix.close rr with Unix.Unix_error _ -> ())
      ()
  in
  ()

(* ------------------------------------------------------------------ *)
(* Scheduling                                                          *)
(* ------------------------------------------------------------------ *)

let idle_slot t =
  Array.fold_left
    (fun acc s ->
      match acc with
      | Some _ -> acc
      | None -> if s.alive && s.job = None then Some s else None)
    None t.slots

let live_workers t =
  Array.fold_left (fun k s -> if s.alive then k + 1 else k) 0 t.slots

(* Dispatch writes happen with [t.mu] held: the target worker is idle
   and blocked in read, so the frame drains promptly, and holding the
   lock means nobody can close or reuse [to_worker] under the write. *)
let dispatch_locked t job slot =
  let now = Clock.monotonic () in
  job.state <- Busy;
  job.attempts <- job.attempts + 1;
  slot.job <- Some job;
  let budget = Option.map (fun d -> d -. now) job.deadline_at in
  let frame =
    Proto.worker_job ~id:job.id ~host:job.canon_host ~budget job.payload
  in
  match Proto.send_line slot.to_worker frame with
  | () -> ()
  | exception (Unix.Unix_error _ | Sys_error _) ->
      worker_down_locked t slot slot.pid "dispatch write failed"

let scheduler t =
  Mutex.lock t.mu;
  let rec loop () =
    if t.stopping then ()
    else begin
      let dispatched =
        if t.draining || Queue.is_empty t.queue then false
        else
          match idle_slot t with
          | None -> false
          | Some slot ->
              let job = Queue.pop t.queue in
              if job.state <> Queued then true (* expired under us; drop *)
              else begin
                let now = Clock.monotonic () in
                (match job.deadline_at with
                | Some d when now >= d -> finish_deadline t job None
                | _ -> (
                    (* a same-keyed job may have completed while this
                       one queued; serve it from the cache instead of
                       recomputing *)
                    match
                      Option.bind job.cache_key (Cache.find t.cache)
                    with
                    | Some summary ->
                        Metrics.incr t.metrics "cache_hits";
                        finish_completed t job ~cached:true summary
                    | None -> dispatch_locked t job slot));
                true
              end
      in
      if not dispatched then Condition.wait t.cond t.mu;
      loop ()
    end
  in
  loop ();
  Mutex.unlock t.mu

(* ------------------------------------------------------------------ *)
(* Admission                                                           *)
(* ------------------------------------------------------------------ *)

(* Canonicalize the host before admission (outside the lock — this is
   the CPU-heavy part of intake).  Running every job on the canonical
   form is what makes cached replies bit-identical to fresh runs: both
   compute on the same representative.  A host too symmetric to
   canonicalize within the budget is admitted as submitted and bypasses
   the cache.  [host_graph] is the edge-list host as admission built it,
   [None] for a complete host. *)
let canonicalize cfg (payload : Proto.job) host_graph =
  match host_graph with
  | None -> (payload.Proto.host, Some ("K|" ^ Proto.params_fingerprint payload))
  | Some g -> (
      let n = Graph.n g in
      match
        Canonical.normal_form ~respect_ownership:false
          ~budget:cfg.canon_budget g
      with
      | h ->
          let cpairs =
            List.map (fun (u, v, _) -> (u, v)) (Graph.edges h)
          in
          ( Proto.Edges (n, cpairs),
            Some
              (Canonical.unowned_key h ^ "|"
             ^ Proto.params_fingerprint payload) )
      | exception Canonical.Budget_exceeded -> (payload.Proto.host, None))

let retry_hint t =
  let ema = Metrics.ema_service_time t.metrics in
  let base = if ema > 0.0 then ema else 0.25 in
  Float.min 5.0 (Float.max 0.05 base)

let handle_submit t conn tag body =
  match Proto.job_of_json body with
  | Error m -> conn_send conn (Proto.error ~message:m ~tag)
  | Ok payload -> (
      let n = Proto.host_n payload.Proto.host in
      let admitted =
        if n > t.cfg.max_n then
          Error (Printf.sprintf "host too large: n = %d > max %d" n t.cfg.max_n)
        else
          match payload.Proto.host with
          | Proto.Complete _ -> Ok None
          | Proto.Edges (n, pairs) ->
              (* built once, for this check and for canonicalization *)
              let g = Graph.of_unowned_edges n pairs in
              if Paths.is_connected g then Ok (Some g)
              else Error "host graph must be connected"
      in
      match admitted with
      | Error m -> conn_send conn (Proto.error ~message:m ~tag)
      | Ok host_graph ->
          let canon_host, cache_key = canonicalize t.cfg payload host_graph in
          Mutex.lock t.mu;
          let id = t.next_id in
          t.next_id <- id + 1;
          Metrics.incr t.metrics "submitted";
          let backlog = Queue.length t.queue + List.length t.backoff in
          let est_wait =
            float_of_int (backlog + 1)
            *. Metrics.ema_service_time t.metrics
            /. float_of_int (max 1 (live_workers t))
          in
          let shed reason counter =
            Metrics.incr t.metrics counter;
            let retry_after =
              match reason with
              | Proto.Draining -> 5.0
              | Proto.Queue_full -> retry_hint t
              | Proto.Overloaded -> Float.min 5.0 (Float.max 0.05 est_wait)
            in
            let reply =
              Proto.outcome_shed ~id ~tag ~reason ~retry_after
            in
            Mutex.unlock t.mu;
            conn_send conn reply
          in
          if t.draining then shed Proto.Draining "shed_draining"
          else if backlog >= t.cfg.max_queue then
            shed Proto.Queue_full "shed_queue_full"
          else if est_wait > t.cfg.max_wait then
            shed Proto.Overloaded "shed_overloaded"
          else begin
            let now = Clock.monotonic () in
            let job =
              {
                id;
                tag;
                payload;
                canon_host;
                cache_key;
                enqueued = now;
                deadline_at =
                  Option.map (fun d -> now +. d) payload.Proto.deadline;
                conn;
                attempts = 0;
                retry_at = 0.0;
                state = Queued;
              }
            in
            match Option.bind cache_key (Cache.find t.cache) with
            | Some summary ->
                Metrics.incr t.metrics "cache_hits";
                Mutex.lock conn.wmu;
                conn.pending <- conn.pending + 1;
                Mutex.unlock conn.wmu;
                conn_send conn (Proto.ack ~id ~tag);
                finish_completed t job ~cached:true summary;
                Mutex.unlock t.mu
            | None ->
                if cache_key <> None then
                  Metrics.incr t.metrics "cache_misses";
                Mutex.lock conn.wmu;
                conn.pending <- conn.pending + 1;
                Mutex.unlock conn.wmu;
                Queue.push job t.queue;
                conn_send conn (Proto.ack ~id ~tag);
                Condition.broadcast t.cond;
                Mutex.unlock t.mu
          end)

let health_json t =
  Mutex.lock t.mu;
  let workers =
    Array.to_list
      (Array.map
         (fun s ->
           Json.Obj
             ([
                ("slot", Json.Int s.index);
                ("pid", Json.Int s.pid);
                ("alive", Json.Bool s.alive);
                ("busy", Json.Bool (s.job <> None));
              ]
             @
             match s.batch_stats with
             | Some b -> [ ("batch", b) ]
             | None -> []))
         t.slots)
  in
  (* Sum of the latest per-worker process totals — each worker's numbers are
     cumulative for its own process, so latest-per-slot sums without
     double-counting (a respawned worker restarts its own count). *)
  let batch_total =
    let field name j =
      match Option.bind (Json.member name j) Json.to_int with
      | Some v -> v
      | None -> 0
    in
    let sum name =
      Array.fold_left
        (fun acc s ->
          match s.batch_stats with
          | Some b -> acc + field name b
          | None -> acc)
        0 t.slots
    in
    Json.Obj
      (List.map
         (fun name -> (name, Json.Int (sum name)))
         [
           "arenas"; "batched_trials"; "kept"; "repaired"; "rebuilt"; "fills";
           "evicted";
         ])
  in
  let reply =
    Json.Obj
      [
        ("type", Json.Str "health");
        ("draining", Json.Bool t.draining);
        ("queue_depth", Json.Int (Queue.length t.queue));
        ("backoff", Json.Int (List.length t.backoff));
        ("workers", Json.List workers);
        ("batch", batch_total);
        ( "cache",
          Json.Obj
            [
              ("entries", Json.Int (Cache.length t.cache));
              ("hits", Json.Int (Metrics.count t.metrics "cache_hits"));
              ("misses", Json.Int (Metrics.count t.metrics "cache_misses"));
            ] );
        ("metrics", Metrics.to_json t.metrics);
      ]
  in
  Mutex.unlock t.mu;
  reply

let request_drain ?signal t =
  Mutex.lock t.mu;
  if not t.draining then begin
    t.draining <- true;
    t.drain_started <- Clock.monotonic ()
  end;
  (match signal with Some _ -> t.stop_signal <- signal | None -> ());
  Condition.broadcast t.cond;
  Mutex.unlock t.mu

let handle_request t conn line =
  match Json.parse line with
  | exception Json.Parse_error m ->
      conn_send conn (Proto.error ~message:("bad request: " ^ m) ~tag:Json.Null)
  | body -> (
      let tag = Option.value (Json.member "tag" body) ~default:Json.Null in
      match Option.bind (Json.member "op" body) Json.to_str with
      | Some ("health" | "stats") -> conn_send conn (health_json t)
      | Some "drain" ->
          request_drain t;
          conn_send conn (Json.Obj [ ("type", Json.Str "draining") ])
      | Some "submit" -> handle_submit t conn tag body
      | Some op ->
          conn_send conn
            (Proto.error ~message:(Printf.sprintf "unknown op %S" op) ~tag)
      | None -> conn_send conn (Proto.error ~message:"missing op" ~tag))

let client_loop t fd =
  let conn = { fd; wmu = Mutex.create (); wclosed = false; eof = false; pending = 0 } in
  let rdr = Proto.Line_reader.create fd in
  let rec loop () =
    match Proto.Line_reader.line ~frame_timeout:t.cfg.frame_timeout rdr with
    | exception Proto.Line_reader.Stalled ->
        (* slow-loris: a frame begun and never finished — count it and
           tear the connection down (owed outcomes still flush first) *)
        Mutex.lock t.mu;
        Metrics.incr t.metrics "stalled_conns";
        Mutex.unlock t.mu
    | exception _ -> ()
    | None -> ()
    | Some line ->
        handle_request t conn line;
        loop ()
  in
  loop ();
  Mutex.lock conn.wmu;
  conn.eof <- true;
  Mutex.unlock conn.wmu;
  conn_close_if_done conn

(* ------------------------------------------------------------------ *)
(* Supervision tick                                                    *)
(* ------------------------------------------------------------------ *)

let tick t =
  Mutex.lock t.mu;
  let now = Clock.monotonic () in
  (* promote backed-off jobs whose delay elapsed *)
  let ready, waiting =
    List.partition (fun j -> j.retry_at <= now) t.backoff
  in
  t.backoff <- waiting;
  List.iter
    (fun j ->
      j.state <- Queued;
      Queue.push j t.queue)
    ready;
  (* during a drain the queue holds only typed goodbyes *)
  if t.draining then begin
    Queue.iter
      (fun j ->
        if j.state = Queued then begin
          Metrics.incr t.metrics "shed_draining";
          finish_job t j
            (Proto.outcome_shed ~id:j.id ~tag:j.tag ~reason:Proto.Draining
               ~retry_after:5.0)
            ~counter:"shed_draining_outcome" ~latency_of:None
        end)
      t.queue;
    Queue.clear t.queue;
    List.iter
      (fun j ->
        Metrics.incr t.metrics "shed_draining";
        finish_job t j
          (Proto.outcome_shed ~id:j.id ~tag:j.tag ~reason:Proto.Draining
             ~retry_after:5.0)
          ~counter:"shed_draining_outcome" ~latency_of:None)
      t.backoff;
    t.backoff <- []
  end
  else begin
    (* expire queued jobs whose deadline passed before dispatch *)
    let keep = Queue.create () in
    Queue.iter
      (fun j ->
        match j.deadline_at with
        | Some d when now >= d && j.state = Queued ->
            finish_deadline t j None
        | _ -> Queue.push j keep)
      t.queue;
    Queue.clear t.queue;
    Queue.transfer keep t.queue
  end;
  (* per-worker supervision *)
  Array.iter
    (fun s ->
      if s.alive then begin
        (* deadline backstop: a worker still holding a job past its
           deadline plus grace is killed; the job completes as
           deadline_exceeded, not as a retryable fault *)
        (match s.job with
        | Some job when job.state = Busy -> (
            match job.deadline_at with
            | Some d when now >= d +. t.cfg.deadline_grace ->
                finish_deadline t job None;
                Sysx.kill s.pid Sys.sigkill
            | _ -> ())
        | _ -> ());
        (* missed heartbeats: same monotonic timeline the worker writes *)
        if
          Supervisor.stale ~dir:t.cfg.lease_dir ~fingerprint
            ~timeout:t.cfg.heartbeat_timeout s.index
        then worker_down_locked t s s.pid "heartbeat expired"
      end
      else if not (t.draining || t.stopping) then
        try spawn_worker_locked t s with _ -> ())
    t.slots;
  (* drain progress *)
  (if t.draining && not t.stopping then
     let busy = Array.exists (fun s -> s.job <> None) t.slots in
     if (not busy) && Queue.is_empty t.queue && t.backoff = [] then
       t.stopping <- true
     else if now -. t.drain_started > t.cfg.drain_grace then
       Array.iter
         (fun s ->
           if s.alive && s.job <> None then
             worker_down_locked t s s.pid "drain grace expired")
         t.slots);
  Condition.broadcast t.cond;
  Mutex.unlock t.mu

(* ------------------------------------------------------------------ *)
(* Serve                                                               *)
(* ------------------------------------------------------------------ *)

let rec mkdir_p dir =
  if dir <> "/" && dir <> "." && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let accept_loop t fd =
  let rec loop () =
    if not t.stopping then
      match Sysx.accept ~stop:(fun () -> t.stopping) fd with
      | exception Unix.Unix_error _ -> () (* listener closed: shutting down *)
      | None -> ()
      | Some (cfd, _) ->
          Unix.set_close_on_exec cfd;
          let _c : Thread.t = Thread.create (fun () -> client_loop t cfd) () in
          loop ()
  in
  loop ()

let serve cfg =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  mkdir_p cfg.lease_dir;
  (* previous daemon generations' SIGKILLed workers may have left
     lease temp files behind *)
  ignore (Durable.sweep_tmps ?incidents:cfg.incidents cfg.lease_dir);
  (try Unix.unlink cfg.socket_path with Unix.Unix_error _ -> ());
  mkdir_p (Filename.dirname cfg.socket_path);
  let t =
    {
      cfg;
      mu = Mutex.create ();
      cond = Condition.create ();
      queue = Queue.create ();
      backoff = [];
      slots =
        Array.init cfg.workers (fun index ->
            {
              index;
              pid = 0;
              to_worker = Unix.stdin;
              alive = false;
              job = None;
              batch_stats = None;
            });
      cache = Cache.create cfg.cache_capacity;
      metrics = Metrics.create ();
      draining = false;
      drain_started = 0.0;
      stopping = false;
      stop_signal = None;
      next_id = 1;
      listen_fd = None;
    }
  in
  List.iter
    (fun sg ->
      Sys.set_signal sg
        (Sys.Signal_handle (fun _ -> request_drain ~signal:sg t)))
    [ Sys.sigterm; Sys.sigint ];
  Mutex.lock t.mu;
  Array.iter (fun s -> spawn_worker_locked t s) t.slots;
  Mutex.unlock t.mu;
  let listen_fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX cfg.socket_path);
  Unix.listen listen_fd 64;
  t.listen_fd <- Some listen_fd;
  let listener = Thread.create (fun () -> accept_loop t listen_fd) () in
  let sched = Thread.create (fun () -> scheduler t) () in
  while not t.stopping do
    tick t;
    Sysx.sleepf cfg.tick_interval
  done;
  (* shutdown: wake everyone, close the listener, put the workers down *)
  (try Unix.close listen_fd with Unix.Unix_error _ -> ());
  (try Unix.unlink cfg.socket_path with Unix.Unix_error _ -> ());
  Mutex.lock t.mu;
  Condition.broadcast t.cond;
  Array.iter
    (fun s -> if s.alive then worker_down_locked t s s.pid "daemon shutdown")
    t.slots;
  Mutex.unlock t.mu;
  Thread.join sched;
  Thread.join listener;
  match t.stop_signal with
  | Some s when s = Sys.sigterm -> 143
  | Some s when s = Sys.sigint -> 130
  | _ -> 0
