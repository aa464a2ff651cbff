type t = { path : string; fd : Unix.file_descr }

type event =
  | Quarantined of { key : string; trial : int; outcome : Stats.outcome }
  | Degraded of { key : string; trial : int; outcome : Stats.outcome }
  | Divergence of { key : string; trial : int; incident : Sentinel.incident }
  | Worker_dead of {
      shard : int;
      pid : int;
      cause : string;
      lo : int;
      hi : int;
    }
  | Reassigned of { shard : int; attempt : int }
  | Shard_quarantined of { shard : int; lo : int; hi : int; attempts : int }
  | Job_interrupted of {
      job : int;
      pid : int;
      attempt : int;
      cause : string;
    }
  | Stale_tmp_swept of { path : string; owner : int }

let open_ path =
  {
    path;
    fd = Sysx.openfile path [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT ] 0o644;
  }

let close t = try Sysx.close t.fd with Unix.Unix_error _ -> ()

let path t = t.path

let verdict_fields = function
  | Stats.Finished { reason; steps } ->
      let tag =
        match reason with
        | Engine.Converged -> "converged"
        | Engine.Cycle_detected _ -> "cycle"
        | Engine.Step_limit -> "step_limit"
        | Engine.Time_limit -> "time_limit"
        | Engine.Invariant_violation _ -> "invariant_violation"
      in
      let detail =
        match reason with
        | Engine.Invariant_violation v ->
            [ ("detail", Json.Str (Audit.violation_to_string v)) ]
        | _ -> []
      in
      ("verdict", Json.Str tag) :: ("steps", Json.Int steps) :: detail
  | Stats.Crashed { exn; backtrace } ->
      [
        ("verdict", Json.Str "crashed");
        ("exn", Json.Str exn);
        ("backtrace", Json.Str backtrace);
      ]

let event_fields = function
  | Quarantined { key; trial; outcome } ->
      ("event", Json.Str "quarantined")
      :: ("key", Json.Str key)
      :: ("trial", Json.Int trial)
      :: ("attempts", Json.Int outcome.Stats.attempts)
      :: verdict_fields outcome.Stats.verdict
  | Degraded { key; trial; outcome } ->
      ("event", Json.Str "degraded")
      :: ("key", Json.Str key)
      :: ("trial", Json.Int trial)
      :: ("attempts", Json.Int outcome.Stats.attempts)
      :: verdict_fields outcome.Stats.verdict
  | Divergence { key; trial; incident } ->
      let phase =
        match incident.Sentinel.phase with
        | Sentinel.Selection _ -> "selection"
        | Sentinel.Move_set _ -> "move_set"
      in
      [
        ("event", Json.Str "divergence");
        ("key", Json.Str key);
        ("trial", Json.Int trial);
        ("step", Json.Int incident.Sentinel.step);
        ("phase", Json.Str phase);
        ("fingerprint", Json.Str incident.Sentinel.fingerprint);
        ("detail", Json.Str (Sentinel.incident_to_string incident));
      ]
  | Worker_dead { shard; pid; cause; lo; hi } ->
      [
        ("event", Json.Str "worker_dead");
        ("shard", Json.Int shard);
        ("pid", Json.Int pid);
        ("cause", Json.Str cause);
        ("lo", Json.Int lo);
        ("hi", Json.Int hi);
      ]
  | Reassigned { shard; attempt } ->
      [
        ("event", Json.Str "reassigned");
        ("shard", Json.Int shard);
        ("attempt", Json.Int attempt);
      ]
  | Shard_quarantined { shard; lo; hi; attempts } ->
      [
        ("event", Json.Str "shard_quarantined");
        ("shard", Json.Int shard);
        ("lo", Json.Int lo);
        ("hi", Json.Int hi);
        ("attempts", Json.Int attempts);
      ]
  | Job_interrupted { job; pid; attempt; cause } ->
      [
        ("event", Json.Str "job_interrupted");
        ("job", Json.Int job);
        ("pid", Json.Int pid);
        ("attempt", Json.Int attempt);
        ("cause", Json.Str cause);
      ]
  | Stale_tmp_swept { path; owner } ->
      [
        ("event", Json.Str "stale_tmp_swept");
        ("path", Json.Str path);
        ("owner", Json.Int owner);
      ]

(* [Json.to_string] escapes control characters, so every record stays on
   one line whatever the payload (violation details, exception
   backtraces, canonical fingerprints). *)
let json_of_event e = Json.to_string (Json.Obj (event_fields e))

(* One write(2) per record.  The fd is O_APPEND, so the kernel serializes
   concurrent appenders at the offset: as long as each record is a single
   write, records from different processes (fleet workers and their
   supervisor share one log) interleave at line granularity, never inside
   a line.  [Sysx.write_all] retries EINTR and resumes short writes —
   previously an interrupting signal would have raised out of [record]. *)
let record t event =
  Sysx.write_all t.fd (Bytes.of_string (json_of_event event ^ "\n"))
