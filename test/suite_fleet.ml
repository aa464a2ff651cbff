(* Tests for the supervised fleet: durable leases, shard merging, and the
   supervisor's crash-reassignment loop.  The supervise tests exercise real
   subprocesses: [Unix.fork] is off-limits once earlier suites have spawned
   domains (OCaml 5), so the injectable [spawn] re-executes this very test
   binary with a child-mode flag that [maybe_run_child] (called first thing
   from main.ml) intercepts before alcotest ever sees the arguments. *)
open Ncg_core
open Ncg_experiments

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let with_temp_dir f =
  let dir = Filename.temp_file "ncg_fleet" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter
          (fun name -> try Sys.remove (Filename.concat dir name) with Sys_error _ -> ())
          (Sys.readdir dir);
        try Unix.rmdir dir with Unix.Unix_error _ -> ()
      end)
    (fun () -> f dir)

let read_lines path =
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  List.rev !lines

(* ------------------------------------------------------------------ *)
(* Lease                                                               *)
(* ------------------------------------------------------------------ *)

let lease0 =
  {
    Lease.shard = 3;
    lo = 30;
    hi = 40;
    status = Lease.Running;
    owner = 4242;
    heartbeat = 1234.5;
    attempts = 2;
  }

let test_lease_roundtrip () =
  with_temp_dir (fun dir ->
      let fingerprint = "fleet test fp" in
      Lease.save ~dir ~fingerprint lease0;
      (match Lease.load ~dir ~fingerprint ~shard:3 with
      | Ok l -> check "roundtrips exactly" true (l = lease0)
      | Error e -> Alcotest.failf "load failed: %s" e);
      (* every status survives *)
      List.iter
        (fun status ->
          Lease.save ~dir ~fingerprint { lease0 with Lease.status };
          match Lease.load ~dir ~fingerprint ~shard:3 with
          | Ok l -> check "status survives" true (l.Lease.status = status)
          | Error e -> Alcotest.failf "load failed: %s" e)
        [ Lease.Pending; Lease.Running; Lease.Done; Lease.Quarantined ])

let test_lease_rejects_wrong_fleet () =
  with_temp_dir (fun dir ->
      Lease.save ~dir ~fingerprint:"fleet A" lease0;
      (match Lease.load ~dir ~fingerprint:"fleet B" ~shard:3 with
      | Error e -> check "header mismatch" true (Astring_like.contains e "header")
      | Ok _ -> Alcotest.fail "accepted a lease of another fleet");
      (match Lease.load ~dir ~fingerprint:"fleet A" ~shard:4 with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "shard-0004 lease should not exist");
      (* a worker claims only a Running lease: the supervisor owns every
         transition into Running *)
      check "claim refuses a missing lease" true
        (Result.is_error (Supervisor.claim ~dir ~fingerprint:"fleet A" ~shard:4));
      Lease.save ~dir ~fingerprint:"fleet A"
        { lease0 with Lease.status = Lease.Done };
      match Supervisor.claim ~dir ~fingerprint:"fleet A" ~shard:3 with
      | Error e ->
          check "claim refuses a Done lease" true
            (Astring_like.contains e "not running")
      | Ok _ -> Alcotest.fail "claimed a Done lease")

let test_lease_corruption_detected () =
  with_temp_dir (fun dir ->
      let fingerprint = "fleet fp" in
      Lease.save ~dir ~fingerprint lease0;
      let p = Lease.path ~dir ~shard:3 in
      (* flip a byte inside the framed body *)
      let lines = read_lines p in
      let header = List.nth lines 0 and body = List.nth lines 1 in
      let damaged = Bytes.of_string body in
      Bytes.set damaged (Bytes.length damaged - 1) '!';
      let oc = open_out p in
      Printf.fprintf oc "%s\n%s\n" header (Bytes.to_string damaged);
      close_out oc;
      (match Lease.load ~dir ~fingerprint ~shard:3 with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "accepted a corrupted lease");
      (* truncation: header only *)
      let oc = open_out p in
      Printf.fprintf oc "%s\n" header;
      close_out oc;
      match Lease.load ~dir ~fingerprint ~shard:3 with
      | Error e -> check "truncated" true (Astring_like.contains e "truncated")
      | Ok _ -> Alcotest.fail "accepted a truncated lease")

let test_lease_expiry () =
  let l = { lease0 with Lease.status = Lease.Running; heartbeat = 100.0 } in
  check "fresh is live" false (Lease.expired ~now:105.0 ~timeout:10.0 l);
  check "stale is expired" true (Lease.expired ~now:111.0 ~timeout:10.0 l);
  check "only Running expires" false
    (Lease.expired ~now:1e9 ~timeout:10.0 { l with Lease.status = Lease.Done })

(* ------------------------------------------------------------------ *)
(* Plan                                                                *)
(* ------------------------------------------------------------------ *)

let test_plan_partitions () =
  List.iter
    (fun (trials, shards) ->
      let ranges = Fleet.plan ~trials ~shards in
      let covered = Array.make trials 0 in
      Array.iter
        (fun (lo, hi) ->
          check "lo <= hi" true (lo <= hi);
          for t = lo to hi - 1 do
            covered.(t) <- covered.(t) + 1
          done)
        ranges;
      Array.iteri
        (fun t c -> check_int (Printf.sprintf "trial %d covered once" t) 1 c)
        covered;
      (* near-equal: sizes differ by at most one *)
      let sizes = Array.map (fun (lo, hi) -> hi - lo) ranges in
      let mn = Array.fold_left min max_int sizes
      and mx = Array.fold_left max 0 sizes in
      check "near-equal shards" true (mx - mn <= 1))
    [ (1, 1); (10, 3); (10, 10); (7, 20); (100, 16) ];
  check_int "shards clamped to trials" 5
    (Array.length (Fleet.plan ~trials:5 ~shards:64));
  check "trials < 1 rejected" true
    (match Fleet.plan ~trials:0 ~shards:4 with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Shard merging                                                       *)
(* ------------------------------------------------------------------ *)

let ok_outcome steps =
  {
    Stats.verdict =
      Stats.Finished { reason = Engine.Converged; steps };
    attempts = 1;
    degraded = false;
    quarantined = false;
  }

let write_shard ~dir ~fingerprint ~shard records =
  let path = Fleet.shard_checkpoint ~dir ~shard in
  let cp = Checkpoint.open_ ~fingerprint path in
  List.iter
    (fun (key, trial, outcome) -> Checkpoint.record cp ~key ~trial outcome)
    records;
  Checkpoint.close cp;
  path

let test_merge_disjoint_shards () =
  with_temp_dir (fun dir ->
      let fingerprint = "merge fp" in
      let p0 =
        write_shard ~dir ~fingerprint ~shard:0
          [ ("k", 0, ok_outcome 5); ("k", 1, ok_outcome 6) ]
      in
      let p1 = write_shard ~dir ~fingerprint ~shard:1 [ ("k", 2, ok_outcome 7) ] in
      let missing = Fleet.shard_checkpoint ~dir ~shard:2 in
      let m = Checkpoint.merge_shards ~fingerprint [ p0; p1; missing ] in
      check_int "three records" 3 (List.length m.Checkpoint.merged);
      check_int "no cross duplicates" 0 m.Checkpoint.cross_duplicates;
      check_int "missing shard skipped" 2
        (List.length m.Checkpoint.shard_reports);
      check "sorted by (key, trial)" true
        (List.map fst m.Checkpoint.merged = [ ("k", 0); ("k", 1); ("k", 2) ]))

let test_merge_overlap_last_shard_wins () =
  with_temp_dir (fun dir ->
      let fingerprint = "merge fp" in
      (* trial 1 appears in both shards with different step counts — the
         reassignment-after-partial-progress case.  Later shard wins,
         deterministically. *)
      let p0 =
        write_shard ~dir ~fingerprint ~shard:0
          [ ("k", 0, ok_outcome 5); ("k", 1, ok_outcome 6) ]
      in
      let p1 =
        write_shard ~dir ~fingerprint ~shard:1
          [ ("k", 1, ok_outcome 9); ("k", 2, ok_outcome 7) ]
      in
      let m = Checkpoint.merge_shards ~fingerprint [ p0; p1 ] in
      check_int "three distinct records" 3 (List.length m.Checkpoint.merged);
      check_int "one cross duplicate" 1 m.Checkpoint.cross_duplicates;
      (match List.assoc ("k", 1) m.Checkpoint.merged with
      | { Stats.verdict = Stats.Finished { steps; _ }; _ } ->
          check_int "later shard won" 9 steps
      | _ -> Alcotest.fail "unexpected verdict");
      (* merge is deterministic in argument order: reversed order flips
         the winner *)
      let m' = Checkpoint.merge_shards ~fingerprint [ p1; p0 ] in
      match List.assoc ("k", 1) m'.Checkpoint.merged with
      | { Stats.verdict = Stats.Finished { steps; _ }; _ } ->
          check_int "reversed order, other winner" 6 steps
      | _ -> Alcotest.fail "unexpected verdict")

let test_merge_surfaces_torn_tail () =
  with_temp_dir (fun dir ->
      let fingerprint = "merge fp" in
      let p0 =
        write_shard ~dir ~fingerprint ~shard:0
          [ ("k", 0, ok_outcome 5); ("k", 1, ok_outcome 6) ]
      in
      (* tear the last record mid-line, as a SIGKILL mid-append would *)
      let size = (Unix.stat p0).Unix.st_size in
      let fd = Unix.openfile p0 [ Unix.O_WRONLY ] 0 in
      Unix.ftruncate fd (size - 4);
      Unix.close fd;
      let m = Checkpoint.merge_shards ~fingerprint [ p0 ] in
      check_int "surviving record still loads" 1
        (List.length m.Checkpoint.merged);
      match m.Checkpoint.shard_reports with
      | [ (_, report) ] -> (
          match report.Checkpoint.corrupted with
          | [ c ] -> check "flagged as tail corruption" true c.Checkpoint.tail
          | _ -> Alcotest.fail "expected exactly one corruption")
      | _ -> Alcotest.fail "expected one shard report")

let test_merge_rejects_foreign_shard () =
  with_temp_dir (fun dir ->
      let p0 =
        write_shard ~dir ~fingerprint:"fleet A" ~shard:0 [ ("k", 0, ok_outcome 5) ]
      in
      check "fingerprint mismatch raises" true
        (match Checkpoint.merge_shards ~fingerprint:"fleet B" [ p0 ] with
        | exception Failure _ -> true
        | _ -> false))

(* ------------------------------------------------------------------ *)
(* Runner range sharding                                               *)
(* ------------------------------------------------------------------ *)

let small_point () =
  match Fleet.point_spec "fig7" ~n:10 with
  | Some p -> p
  | None -> Alcotest.fail "fig7 point missing"

let test_runner_range_parity () =
  let { Fleet.spec; _ } = small_point () in
  let trials = 12 in
  let full = Runner.run_outcomes ~domains:1 ~seed:11 ~trials spec in
  let sharded =
    List.concat_map
      (fun (lo, hi) ->
        Runner.run_outcomes ~domains:1 ~seed:11 ~range:(lo, hi) ~trials spec)
      [ (0, 5); (5, 6); (6, 12) ]
  in
  check "sharded outcomes = full outcomes" true (full = sharded);
  check "range validated" true
    (match
       Runner.run_outcomes ~domains:1 ~range:(4, 20) ~trials spec
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Supervise end-to-end (subprocess workers)                           *)
(* ------------------------------------------------------------------ *)

(* The test binary doubles as the worker executable: [maybe_run_child]
   (called before alcotest in main.ml) intercepts this flag, runs the
   requested child mode, and exits. *)
let child_flag = "--ncg-fleet-child"

let worker_child = function
  | [ dir; fingerprint; shard; seed; trials ] ->
      let (point : Fleet.point) = small_point () in
      exit
        (match
           Fleet.worker ~dir ~fingerprint ~shard:(int_of_string shard)
             ~key:point.Fleet.key ~seed:(int_of_string seed)
             ~trials:(int_of_string trials) ~heartbeat_interval:0.01
             point.Fleet.spec
         with
        | Ok () -> 0
        | Error _ -> 3
        | exception _ -> 4)
  | _ ->
      prerr_endline "bad fleet worker-child arguments";
      exit 64

let incident_child = function
  | [ path; writer; per_writer ] ->
      let log = Incident_log.open_ path in
      for i = 0 to int_of_string per_writer - 1 do
        Incident_log.record log
          (Incident_log.Reassigned { shard = int_of_string writer; attempt = i })
      done;
      Incident_log.close log;
      exit 0
  | _ ->
      prerr_endline "bad incident-child arguments";
      exit 64

let maybe_run_child () =
  let rec after_flag = function
    | [] -> None
    | flag :: rest when flag = child_flag -> Some rest
    | _ :: rest -> after_flag rest
  in
  match after_flag (Array.to_list Sys.argv) with
  | None -> ()
  | Some ("worker" :: args) -> worker_child args
  | Some ("crash" :: _) ->
      (* die by signal, as a segfault or the OOM killer would *)
      Unix.kill (Unix.getpid ()) Sys.sigkill;
      exit 9
  | Some ("incidents" :: args) -> incident_child args
  | Some ("sleep" :: _) ->
      (* a worker that never finishes on its own *)
      Unix.sleepf 60.0;
      exit 0
  | Some _ ->
      prerr_endline "unknown fleet child mode";
      exit 64

let run_child args =
  Unix.create_process Sys.executable_name
    (Array.of_list ((Sys.executable_name :: child_flag :: args)))
    Unix.stdin Unix.stdout Unix.stderr

(* Spawn a real worker subprocess.  [sabotage] lets a test kill specific
   attempts: it receives (shard, attempts-so-far) and returns true to
   make the child die by SIGKILL before doing any work. *)
let exec_spawn ~dir ~fingerprint ~seed ~trials
    ?(sabotage = fun ~shard:_ ~spawned:_ -> false) () =
  let spawned = Hashtbl.create 8 in
  fun ~shard ->
    let n = try Hashtbl.find spawned shard with Not_found -> 0 in
    Hashtbl.replace spawned shard (n + 1);
    if sabotage ~shard ~spawned:n then run_child [ "crash" ]
    else
      run_child
        [
          "worker"; dir; fingerprint; string_of_int shard; string_of_int seed;
          string_of_int trials;
        ]

let fleet_config ~dir ~spawn ?incidents () =
  let ({ Fleet.key; _ } : Fleet.point) = small_point () in
  {
    Fleet.dir;
    fingerprint = "suite fleet fp";
    key;
    seed = 11;
    trials = 12;
    shards = 4;
    workers = 2;
    heartbeat_timeout = 20.0;
    poll_interval = 0.01;
    max_respawns = 2;
    spawn;
    incidents = (match incidents with Some i -> Some i | None -> None);
  }

let reference_summary () =
  let { Fleet.spec; _ } = small_point () in
  Runner.run ~domains:1 ~seed:11 ~trials:12 spec

let test_supervise_matches_single_process () =
  with_temp_dir (fun dir ->
      let spawn =
        exec_spawn ~dir ~fingerprint:"suite fleet fp" ~seed:11 ~trials:12 ()
      in
      let r = Fleet.supervise (fleet_config ~dir ~spawn ()) in
      check_int "no trial missing" 0 (List.length r.Fleet.missing);
      check_int "no respawns needed" 0 r.Fleet.respawns;
      check "bit-identical to single-process run" true
        (r.Fleet.summary = reference_summary ());
      (* a second supervise run resumes off the Done leases: no respawn,
         same result *)
      let r2 = Fleet.supervise (fleet_config ~dir ~spawn ()) in
      check "resumed fleet identical" true
        (r2.Fleet.summary = reference_summary ()))

let test_supervise_reassigns_after_crashes () =
  with_temp_dir (fun dir ->
      let log_path = Filename.temp_file "ncg_fleet_inc" ".jsonl" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove log_path with Sys_error _ -> ())
        (fun () ->
          let log = Incident_log.open_ log_path in
          (* first attempt of every shard dies before doing any work *)
          let spawn =
            exec_spawn ~dir ~fingerprint:"suite fleet fp" ~seed:11 ~trials:12
              ~sabotage:(fun ~shard:_ ~spawned -> spawned = 0)
              ()
          in
          let r = Fleet.supervise (fleet_config ~dir ~spawn ~incidents:log ()) in
          Incident_log.close log;
          check_int "every shard was respawned once" 4 r.Fleet.respawns;
          check_int "nothing missing" 0 (List.length r.Fleet.missing);
          check_int "nothing quarantined" 0 (List.length r.Fleet.quarantined);
          check "crashes do not change the result" true
            (r.Fleet.summary = reference_summary ());
          let text = String.concat "\n" (read_lines log_path) in
          check "worker deaths logged" true
            (Astring_like.contains text "\"worker_dead\"");
          check "reassignments logged" true
            (Astring_like.contains text "\"reassigned\"")))

let test_supervise_quarantines_hopeless_shard () =
  with_temp_dir (fun dir ->
      let log_path = Filename.temp_file "ncg_fleet_inc" ".jsonl" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove log_path with Sys_error _ -> ())
        (fun () ->
          let log = Incident_log.open_ log_path in
          (* shard 2 dies on every attempt; the rest are healthy *)
          let spawn =
            exec_spawn ~dir ~fingerprint:"suite fleet fp" ~seed:11 ~trials:12
              ~sabotage:(fun ~shard ~spawned:_ -> shard = 2)
              ()
          in
          let r = Fleet.supervise (fleet_config ~dir ~spawn ~incidents:log ()) in
          Incident_log.close log;
          check "shard 2 quarantined" true (r.Fleet.quarantined = [ 2 ]);
          check "its trials are missing" true (r.Fleet.missing <> []);
          check_int "the other shards completed" (12 - List.length r.Fleet.missing)
            (List.length r.Fleet.outcomes);
          let text = String.concat "\n" (read_lines log_path) in
          check "quarantine logged" true
            (Astring_like.contains text "\"shard_quarantined\"");
          (* the quarantined lease survives on disk for post-mortem *)
          match Lease.load ~dir ~fingerprint:"suite fleet fp" ~shard:2 with
          | Ok l -> check "lease quarantined" true (l.Lease.status = Lease.Quarantined)
          | Error e -> Alcotest.failf "lease unreadable: %s" e))

(* ------------------------------------------------------------------ *)
(* Monotonic clock                                                     *)
(* ------------------------------------------------------------------ *)

let test_clock_monotonic () =
  (* lease heartbeats and expiry checks compare Clock.monotonic stamps;
     the clock must never run backwards (wall-clock skew — NTP steps,
     manual resets — must not fabricate or mask staleness) *)
  let prev = ref (Clock.monotonic ()) in
  for _ = 1 to 1000 do
    let now = Clock.monotonic () in
    check "never runs backwards" true (now >= !prev);
    prev := now
  done;
  (* and it advances with real elapsed time *)
  let t0 = Clock.monotonic () in
  Sysx.sleepf 0.05;
  let dt = Clock.monotonic () -. t0 in
  check "advances with real time" true (dt >= 0.04);
  (* regression: a lease heartbeat stamped with the monotonic clock is
     judged by the same timeline, so expiry reflects real elapsed time
     regardless of what the wall clock does in between *)
  let l =
    { lease0 with Lease.status = Lease.Running; heartbeat = Clock.monotonic () }
  in
  check "fresh on the monotonic timeline" false
    (Lease.expired ~now:(Clock.monotonic ()) ~timeout:10.0 l);
  check "stale once the timeline advances past the timeout" true
    (Lease.expired ~now:(l.Lease.heartbeat +. 10.01) ~timeout:10.0 l)

(* ------------------------------------------------------------------ *)
(* Incident log: concurrent writers                                    *)
(* ------------------------------------------------------------------ *)

let test_incident_log_concurrent_writers () =
  let log_path = Filename.temp_file "ncg_inc_race" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove log_path with Sys_error _ -> ())
    (fun () ->
      let writers = 4 and per_writer = 50 in
      let pids =
        List.init writers (fun w ->
            run_child
              [
                "incidents"; log_path; string_of_int w;
                string_of_int per_writer;
              ])
      in
      List.iter
        (fun pid ->
          match Unix.waitpid [] pid with
          | _, Unix.WEXITED 0 -> ()
          | _ -> Alcotest.fail "writer child failed")
        pids;
      let lines = read_lines log_path in
      check_int "no record lost or torn" (writers * per_writer)
        (List.length lines);
      (* every line is exactly one well-formed record: starts with {,
         ends with }, and no line contains two records glued together *)
      List.iter
        (fun line ->
          check "line is one record" true
            (String.length line > 2
            && line.[0] = '{'
            && line.[String.length line - 1] = '}'
            && not (Astring_like.contains line "}{")))
        lines;
      (* per writer, all records present *)
      List.iteri
        (fun w () ->
          for i = 0 to per_writer - 1 do
            let needle =
              Printf.sprintf "{\"event\":\"reassigned\",\"shard\":%d,\"attempt\":%d}" w i
            in
            check "record intact" true
              (List.exists (fun l -> l = needle) lines)
          done)
        (List.init writers (fun _ -> ())))

(* ------------------------------------------------------------------ *)
(* Supervise leaves no worker behind                                   *)
(* ------------------------------------------------------------------ *)

(* A supervisor that raises (here: spawning shard 1 fails) must not
   leave the workers it already started running: they are killed and
   reaped before the exception propagates. *)
let test_supervise_reaps_workers_when_it_raises () =
  with_temp_dir (fun dir ->
      let sleeper = ref None in
      let spawn ~shard =
        if shard = 0 then begin
          let pid = run_child [ "sleep" ] in
          sleeper := Some pid;
          pid
        end
        else failwith "spawn refused"
      in
      let cfg = { (fleet_config ~dir ~spawn ()) with Fleet.shards = 2 } in
      check "supervise raises" true
        (match Fleet.supervise cfg with
        | exception Failure _ -> true
        | _ -> false);
      match !sleeper with
      | None -> Alcotest.fail "shard 0 was never spawned"
      | Some pid ->
          let reaped =
            match Unix.waitpid [ Unix.WNOHANG ] pid with
            | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true
            | _ ->
                (* still running or an unreaped zombie: clean up *)
                (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
                (try ignore (Unix.waitpid [] pid)
                 with Unix.Unix_error _ -> ());
                false
          in
          check "the shard-0 worker is dead and reaped" true reaped)

let suite =
  ( "fleet",
    [
      Alcotest.test_case "lease roundtrip" `Quick test_lease_roundtrip;
      Alcotest.test_case "lease rejects wrong fleet" `Quick
        test_lease_rejects_wrong_fleet;
      Alcotest.test_case "lease corruption detected" `Quick
        test_lease_corruption_detected;
      Alcotest.test_case "lease expiry" `Quick test_lease_expiry;
      Alcotest.test_case "plan partitions trials" `Quick test_plan_partitions;
      Alcotest.test_case "merge disjoint shards" `Quick
        test_merge_disjoint_shards;
      Alcotest.test_case "merge overlap: last shard wins" `Quick
        test_merge_overlap_last_shard_wins;
      Alcotest.test_case "merge surfaces torn tail" `Quick
        test_merge_surfaces_torn_tail;
      Alcotest.test_case "merge rejects foreign shard" `Quick
        test_merge_rejects_foreign_shard;
      Alcotest.test_case "runner range parity" `Quick test_runner_range_parity;
      Alcotest.test_case "supervise = single process" `Quick
        test_supervise_matches_single_process;
      Alcotest.test_case "supervise reassigns after crashes" `Quick
        test_supervise_reassigns_after_crashes;
      Alcotest.test_case "supervise quarantines hopeless shard" `Quick
        test_supervise_quarantines_hopeless_shard;
      Alcotest.test_case "monotonic clock" `Quick test_clock_monotonic;
      Alcotest.test_case "incident log concurrent writers" `Quick
        test_incident_log_concurrent_writers;
      Alcotest.test_case "supervise reaps its workers when it raises" `Quick
        test_supervise_reaps_workers_when_it_raises;
    ] )
