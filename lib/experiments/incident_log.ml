type rotation = { max_bytes : int; keep : int }

type t = {
  path : string;
  mutable fd : Unix.file_descr;
  rotation : rotation option;
}

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

let open_fd path =
  Sysx.openfile path [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT ] 0o644

let open_ ?rotation path =
  (match rotation with
  | Some r when r.max_bytes < 1 || r.keep < 1 ->
      invalid_arg "Incident_log.open_: rotation needs max_bytes, keep >= 1"
  | _ -> ());
  { path; fd = open_fd path; rotation }

let close t = try Sysx.close t.fd with Unix.Unix_error _ -> ()

let path t = t.path

(* Minimal JSON string escaping: the two mandatory escapes plus control
   characters, so every record stays on one line whatever the payload
   (violation details, exception backtraces, canonical fingerprints). *)
let json_string s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

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
            [ ("detail", json_string (Audit.violation_to_string v)) ]
        | _ -> []
      in
      (("verdict", json_string tag) :: ("steps", string_of_int steps)
      :: detail)
  | Stats.Crashed { exn; backtrace } ->
      [
        ("verdict", json_string "crashed");
        ("exn", json_string exn);
        ("backtrace", json_string backtrace);
      ]

let obj fields =
  "{"
  ^ String.concat ","
      (List.map (fun (k, v) -> Printf.sprintf "%s:%s" (json_string k) v) fields)
  ^ "}"

let json_of_event = function
  | Quarantined { key; trial; outcome } ->
      obj
        (("event", json_string "quarantined")
        :: ("key", json_string key)
        :: ("trial", string_of_int trial)
        :: ("attempts", string_of_int outcome.Stats.attempts)
        :: verdict_fields outcome.Stats.verdict)
  | Degraded { key; trial; outcome } ->
      obj
        (("event", json_string "degraded")
        :: ("key", json_string key)
        :: ("trial", string_of_int trial)
        :: ("attempts", string_of_int outcome.Stats.attempts)
        :: verdict_fields outcome.Stats.verdict)
  | Divergence { key; trial; incident } ->
      let phase =
        match incident.Sentinel.phase with
        | Sentinel.Selection _ -> "selection"
        | Sentinel.Move_set _ -> "move_set"
      in
      obj
        [
          ("event", json_string "divergence");
          ("key", json_string key);
          ("trial", string_of_int trial);
          ("step", string_of_int incident.Sentinel.step);
          ("phase", json_string phase);
          ("fingerprint", json_string incident.Sentinel.fingerprint);
          ("detail", json_string (Sentinel.incident_to_string incident));
        ]
  | Worker_dead { shard; pid; cause; lo; hi } ->
      obj
        [
          ("event", json_string "worker_dead");
          ("shard", string_of_int shard);
          ("pid", string_of_int pid);
          ("cause", json_string cause);
          ("lo", string_of_int lo);
          ("hi", string_of_int hi);
        ]
  | Reassigned { shard; attempt } ->
      obj
        [
          ("event", json_string "reassigned");
          ("shard", string_of_int shard);
          ("attempt", string_of_int attempt);
        ]
  | Shard_quarantined { shard; lo; hi; attempts } ->
      obj
        [
          ("event", json_string "shard_quarantined");
          ("shard", string_of_int shard);
          ("lo", string_of_int lo);
          ("hi", string_of_int hi);
          ("attempts", string_of_int attempts);
        ]
  | Job_interrupted { job; pid; attempt; cause } ->
      obj
        [
          ("event", json_string "job_interrupted");
          ("job", string_of_int job);
          ("pid", string_of_int pid);
          ("attempt", string_of_int attempt);
          ("cause", json_string cause);
        ]
  | Stale_tmp_swept { path; owner } ->
      obj
        [
          ("event", json_string "stale_tmp_swept");
          ("path", json_string path);
          ("owner", string_of_int owner);
        ]

(* ------------------------------------------------------------------ *)
(* Rotation                                                            *)
(* ------------------------------------------------------------------ *)

let segment t i = Printf.sprintf "%s.%d" t.path i

(* Shift path -> path.1 -> path.2 -> ... -> path.keep (dropped).  Pure
   renames: a writer that still holds an fd to a renamed segment keeps
   appending to it — its records land in the rotated file, complete,
   because each record is one O_APPEND write.  Rotation therefore never
   tears a record, whoever performs it. *)
let rotate t r =
  (try Sysx.unlink (segment t r.keep) with Unix.Unix_error _ -> ());
  for i = r.keep - 1 downto 1 do
    if Sys.file_exists (segment t i) then (
      try Sysx.rename (segment t i) (segment t (i + 1))
      with Unix.Unix_error _ -> ())
  done;
  (try Sysx.rename t.path (segment t 1) with Unix.Unix_error _ -> ());
  (try Sysx.close t.fd with Unix.Unix_error _ -> ());
  t.fd <- open_fd t.path

let same_file a b =
  a.Unix.st_dev = b.Unix.st_dev && a.Unix.st_ino = b.Unix.st_ino

(* Rotation check before each record.  Two concerns: (a) our own file
   grew past the cap — rotate it; (b) another process of a shared log
   rotated under us — our fd now points at a renamed segment, so reopen
   the live path.  Concurrent rotations race only on renames, which are
   individually atomic; the worst interleaving skips one shift, never
   damages a line. *)
let maybe_rotate t =
  match t.rotation with
  | None -> ()
  | Some r -> (
      (match Unix.stat t.path with
      | st when same_file st (Unix.fstat t.fd) -> ()
      | _ | (exception Unix.Unix_error (Unix.ENOENT, _, _)) ->
          (try Unix.close t.fd with Unix.Unix_error _ -> ());
          t.fd <- open_fd t.path);
      match Unix.fstat t.fd with
      | st when st.Unix.st_size >= r.max_bytes -> rotate t r
      | _ -> ())

(* One write(2) per record.  The fd is O_APPEND, so the kernel serializes
   concurrent appenders at the offset: as long as each record is a single
   write, records from different processes (fleet workers and their
   supervisor share one log) interleave at line granularity, never inside
   a line.  [Sysx.write_all] retries EINTR and resumes short writes —
   previously an interrupting signal would have raised out of [record]. *)
let record t event =
  maybe_rotate t;
  Sysx.write_all t.fd (Bytes.of_string (json_of_event event ^ "\n"))
