(* OCaml signal numbers are internal (Sys.sigkill = -7); name them so
   incident causes read "killed by SIGKILL". *)
let signal_name s =
  if s = Sys.sigkill then "SIGKILL"
  else if s = Sys.sigterm then "SIGTERM"
  else if s = Sys.sigint then "SIGINT"
  else if s = Sys.sigsegv then "SIGSEGV"
  else if s = Sys.sigabrt then "SIGABRT"
  else if s = Sys.sigbus then "SIGBUS"
  else if s = Sys.sigstop then "SIGSTOP"
  else if s = Sys.sigquit then "SIGQUIT"
  else Printf.sprintf "signal %d" s

let kill_and_reap pid =
  Sysx.kill pid Sys.sigkill;
  Sysx.reap pid

let stale ~dir ~fingerprint ~timeout shard =
  match Lease.load ~dir ~fingerprint ~shard with
  | Ok l -> Lease.expired ~now:(Clock.monotonic ()) ~timeout l
  | Error _ -> false

(* ------------------------------------------------------------------ *)
(* Supervisor side                                                     *)
(* ------------------------------------------------------------------ *)

(* Every supervisor-side write: the lease is unowned until a worker
   claims it. *)
let save_unowned ~dir ~fingerprint ~shard ~lo ~hi ~attempts status =
  Lease.save ~dir ~fingerprint
    {
      Lease.shard;
      lo;
      hi;
      status;
      owner = 0;
      heartbeat = Clock.monotonic ();
      attempts;
    }

let attempts_on_disk ~dir ~fingerprint shard =
  match Lease.load ~dir ~fingerprint ~shard with
  | Ok l -> l.Lease.attempts
  | Error _ -> 0

let assign ~dir ~fingerprint ~shard ~lo ~hi =
  save_unowned ~dir ~fingerprint ~shard ~lo ~hi
    ~attempts:(attempts_on_disk ~dir ~fingerprint shard + 1)
    Lease.Running

let reconcile ~dir ~fingerprint ?incidents ranges =
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  (* takeover hygiene: SIGKILLed writers may have left temp files
     behind *)
  ignore (Durable.sweep_tmps ?incidents dir);
  List.filter
    (fun s ->
      let lo, hi = ranges.(s) in
      match Lease.load ~dir ~fingerprint ~shard:s with
      | Ok l
        when l.Lease.lo = lo && l.Lease.hi = hi && l.Lease.status = Lease.Done
        ->
          false
      | _ ->
          save_unowned ~dir ~fingerprint ~shard:s ~lo ~hi ~attempts:0
            Lease.Pending;
          true)
    (List.init (Array.length ranges) Fun.id)

type config = {
  dir : string;
  fingerprint : string;
  ranges : (int * int) array;
  workers : int;
  heartbeat_timeout : float;
  poll_interval : float;
  max_respawns : int;
  spawn : int -> int;
  incidents : Incident_log.t option;
}

type report = { respawns : int; quarantined : (int * string) list }

let run cfg =
  let dir = cfg.dir and fingerprint = cfg.fingerprint in
  let incident e =
    match cfg.incidents with
    | None -> ()
    | Some log -> Incident_log.record log e
  in
  let pending =
    Queue.of_seq
      (List.to_seq
         (reconcile ~dir ~fingerprint ?incidents:cfg.incidents cfg.ranges))
  in
  let running : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let respawns = ref 0 and quarantined = ref [] in
  let fail s pid cause =
    Hashtbl.remove running s;
    let lo, hi = cfg.ranges.(s) in
    incident (Incident_log.Worker_dead { shard = s; pid; cause; lo; hi });
    let attempts = attempts_on_disk ~dir ~fingerprint s in
    let release = save_unowned ~dir ~fingerprint ~shard:s ~lo ~hi ~attempts in
    if attempts > cfg.max_respawns then begin
      release Lease.Quarantined;
      quarantined := (s, cause) :: !quarantined;
      incident (Incident_log.Shard_quarantined { shard = s; lo; hi; attempts })
    end
    else begin
      release Lease.Pending;
      incr respawns;
      incident (Incident_log.Reassigned { shard = s; attempt = attempts });
      Queue.add s pending
    end
  in
  (* Every exit path leaves no worker behind: signal all, then reap all,
     and forget them so no later handler signals a recycled pid. *)
  let reap_all signal =
    Hashtbl.iter (fun _ pid -> Sysx.kill pid signal) running;
    Hashtbl.iter (fun _ pid -> Sysx.reap pid) running;
    Hashtbl.reset running
  in
  (try
     while (not (Queue.is_empty pending)) || Hashtbl.length running > 0 do
       if Runner.stop_requested () then begin
         reap_all Sys.sigterm;
         raise Runner.Interrupted
       end;
       while
         (not (Queue.is_empty pending)) && Hashtbl.length running < cfg.workers
       do
         let s = Queue.pop pending in
         let lo, hi = cfg.ranges.(s) in
         assign ~dir ~fingerprint ~shard:s ~lo ~hi;
         Hashtbl.replace running s (cfg.spawn s)
       done;
       Sysx.sleepf cfg.poll_interval;
       let events =
         Hashtbl.fold
           (fun s pid acc ->
             match Sysx.waitpid [ Unix.WNOHANG ] pid with
             | 0, _ ->
                 (* alive as far as the kernel knows; check the heartbeat *)
                 if stale ~dir ~fingerprint ~timeout:cfg.heartbeat_timeout s
                 then `Stalled (s, pid) :: acc
                 else acc
             | _, Unix.WEXITED 0 -> `Exited_ok (s, pid) :: acc
             | _, Unix.WEXITED c ->
                 `Died (s, pid, Printf.sprintf "exited %d" c) :: acc
             | _, Unix.WSIGNALED sg ->
                 `Died (s, pid, "killed by " ^ signal_name sg) :: acc
             | _, Unix.WSTOPPED _ -> acc
             | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
                 (* reaped elsewhere: only possible if the child is gone *)
                 `Died (s, pid, "waitpid: no such child") :: acc)
           running []
       in
       List.iter
         (function
           | `Stalled (s, pid) ->
               (* hung or starved: kill it so the reassigned shard cannot
                  be double-run *)
               kill_and_reap pid;
               fail s pid "heartbeat expired"
           | `Exited_ok (s, pid) -> (
               (* exit 0 only counts with a Done lease — a fenced worker
                  exits cleanly without finishing its shard *)
               match Lease.load ~dir ~fingerprint ~shard:s with
               | Ok l when l.Lease.status = Lease.Done ->
                   Hashtbl.remove running s
               | _ -> fail s pid "exited 0 without completing its lease")
           | `Died (s, pid, cause) -> fail s pid cause)
         events
     done
   with e ->
     reap_all Sys.sigkill;
     raise e);
  {
    respawns = !respawns;
    quarantined = List.sort compare !quarantined;
  }

(* ------------------------------------------------------------------ *)
(* Worker side                                                         *)
(* ------------------------------------------------------------------ *)

exception Lease_lost of string

let claim ~dir ~fingerprint ~shard =
  match Lease.load ~dir ~fingerprint ~shard with
  | Error e -> Error (Printf.sprintf "lease load: %s" e)
  | Ok l when l.Lease.status <> Lease.Running ->
      Error
        (Printf.sprintf "lease is %s, not running"
           (Lease.status_label l.Lease.status))
  | Ok l ->
      let l =
        { l with Lease.owner = Unix.getpid (); heartbeat = Clock.monotonic () }
      in
      Lease.save ~dir ~fingerprint l;
      Ok l

(* Save [update l] if the lease [l] is still [Running] under this
   process; otherwise this worker is fenced. *)
let update_owned ~dir ~fingerprint ~shard ~lost update =
  match Lease.load ~dir ~fingerprint ~shard with
  | Ok l when l.Lease.status = Lease.Running && l.Lease.owner = Unix.getpid ()
    ->
      Lease.save ~dir ~fingerprint (update l);
      Ok ()
  | Ok _ -> Error lost
  | Error e -> Error ("lease unreadable: " ^ e)

let beat ~dir ~fingerprint ~shard =
  update_owned ~dir ~fingerprint ~shard ~lost:"lease reassigned under us"
    (fun l -> { l with Lease.heartbeat = Clock.monotonic () })

let hold ~dir ~fingerprint ~shard ~heartbeat_interval body =
  match claim ~dir ~fingerprint ~shard with
  | Error _ as e -> e
  | Ok lease -> (
      let last_beat = ref (Clock.monotonic ()) in
      let rate_limited_beat () =
        let now = Clock.monotonic () in
        if now -. !last_beat >= heartbeat_interval then begin
          (match beat ~dir ~fingerprint ~shard with
          | Ok () -> ()
          | Error why -> raise (Lease_lost why));
          last_beat := now
        end
      in
      match body lease ~beat:rate_limited_beat with
      | exception Lease_lost why -> Error why
      | Error _ as e -> e
      | Ok () ->
          update_owned ~dir ~fingerprint ~shard
            ~lost:"lease reassigned before completion" (fun l ->
              {
                l with
                Lease.status = Lease.Done;
                heartbeat = Clock.monotonic ();
              }))
