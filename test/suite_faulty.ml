(* Unit tests for the deterministic I/O fault-injection layer
   (Sysx.Faulty) and the durability discipline of the artifacts routed
   through it: plan grammar roundtrips, short-write resume, injected
   EINTR storms exercising the retry loops, error propagation, the
   fsync-before-rename ordering of checkpoint and lease saves, stale
   temp-file sweeps and their scope, a real fork/crash at the rename
   boundary, and byte-for-byte pins of the framed formats. *)
open Ncg_core
open Ncg_experiments
module Faulty = Sysx.Faulty

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let fingerprint = "faulty-suite fp=1"

let outcome steps =
  Stats.of_verdict (Stats.Finished { reason = Engine.Converged; steps })

(* ------------------------------------------------------------------ *)
(* Child modes                                                         *)
(*                                                                     *)
(* Unix.fork is off-limits under OCaml 5 once any suite has spawned a  *)
(* domain, so the crash tests re-execute this binary instead — the     *)
(* same pattern the fleet and service suites use for their workers.    *)
(* ------------------------------------------------------------------ *)

let child_flag = "--ncg-faulty-child"

let maybe_run_child () =
  let rec after_flag = function
    | [] -> None
    | flag :: rest when flag = child_flag -> Some rest
    | _ :: rest -> after_flag rest
  in
  match after_flag (Array.to_list Sys.argv) with
  | None -> ()
  | Some [ "exit0" ] -> Unix._exit 0
  | Some [ "crash-writer"; path ] -> (
      (* dies at the rename inside write_atomically — the simulated
         power failure *)
      Faulty.arm
        [ { Faulty.op = Faulty.Rename; where = None; at = 1;
            act = Faulty.Crash_before } ];
      match
        Checkpoint.write_atomically path fingerprint
          [ (("k", 0), outcome 8); (("k", 1), outcome 9) ]
      with
      | () -> Unix._exit 1 (* the fault failed to fire *)
      | exception _ -> Unix._exit 2)
  | Some _ ->
      prerr_endline "unknown faulty child mode";
      exit 64

let spawn_child args =
  let pid =
    Unix.create_process Sys.executable_name
      (Array.of_list (Sys.executable_name :: child_flag :: args))
      Unix.stdin Unix.stdout Unix.stderr
  in
  Sysx.waitpid [] pid

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter
        (fun name -> rm_rf (Filename.concat path name))
        (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())
  | exception Unix.Unix_error _ -> ()

let with_temp_dir f =
  let dir = Filename.temp_file "ncg_faulty" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* every test disarms even on failure: an armed plan leaking into the
   next test would fault unrelated I/O *)
let with_plan ?tracing rules f =
  Faulty.arm ?tracing rules;
  Fun.protect ~finally:Faulty.disarm f

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* ------------------------------------------------------------------ *)
(* Plan grammar                                                        *)
(* ------------------------------------------------------------------ *)

let test_plan_roundtrip () =
  let plan =
    "write[state.ck]@3:short=7;any@2:crash_before;read@1:eintr=5;\
     rename@1:err=ENOSPC;write@2:torn=9;fsync_dir@1:crash_after"
  in
  (match Faulty.parse plan with
  | Error m -> Alcotest.failf "parse failed: %s" m
  | Ok rules ->
      check_int "six rules" 6 (List.length rules);
      check_str "roundtrip" plan (Faulty.to_string rules));
  check "empty plan" true (Faulty.parse "" = Ok []);
  List.iter
    (fun bad ->
      check
        (Printf.sprintf "rejects %S" bad)
        true
        (match Faulty.parse bad with Error _ -> true | Ok _ -> false))
    [
      "write@0:crash_before" (* @0 only composes with short= *);
      "bogus@1:short=2";
      "write@1:flub=3";
      "write@x:short=1";
      "write@1:err=EWHAT";
      "write@1short=1";
    ]

(* ------------------------------------------------------------------ *)
(* Wrapper semantics under injection                                   *)
(* ------------------------------------------------------------------ *)

let payload = String.init 100 (fun i -> Char.chr (33 + (i mod 90)))

let test_short_write_resume () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "out" in
      let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 in
      with_plan ~tracing:true
        [ { Faulty.op = Faulty.Write; where = None; at = 0;
            act = Faulty.Short 1 } ]
        (fun () ->
          Sysx.write_all fd (Bytes.of_string payload);
          let writes =
            List.length
              (List.filter (fun (op, _) -> op = Faulty.Write) (Faulty.trace ()))
          in
          check "one write(2) per byte" true (writes >= String.length payload));
      Unix.close fd;
      check_str "payload intact after 1-byte writes" payload (read_file path))

let test_eintr_storm () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "out" in
      let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 in
      with_plan ~tracing:true
        [ { Faulty.op = Faulty.Write; where = None; at = 1;
            act = Faulty.Eintr 3 } ]
        (fun () ->
          Sysx.write_all fd (Bytes.of_string payload);
          (* 3 interrupted attempts + the one that lands *)
          let writes =
            List.length
              (List.filter (fun (op, _) -> op = Faulty.Write) (Faulty.trace ()))
          in
          check_int "retry loop re-entered per EINTR" 4 writes);
      Unix.close fd;
      check_str "payload intact after the storm" payload (read_file path);
      (* and the read side: interrupt twice, then deliver *)
      let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
      with_plan
        [ { Faulty.op = Faulty.Read; where = None; at = 1;
            act = Faulty.Eintr 2 } ]
        (fun () ->
          let buf = Bytes.create 200 in
          let k = Sysx.read fd buf 0 200 in
          check_str "read delivered after EINTRs" payload
            (Bytes.sub_string buf 0 k));
      Unix.close fd)

let test_err_propagates () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "out" in
      let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 in
      with_plan
        [ { Faulty.op = Faulty.Write; where = None; at = 1;
            act = Faulty.Err Unix.ENOSPC } ]
        (fun () ->
          check "ENOSPC escapes write_all" true
            (match Sysx.write_all fd (Bytes.of_string payload) with
            | () -> false
            | exception Unix.Unix_error (Unix.ENOSPC, _, _) -> true));
      Unix.close fd)

(* ------------------------------------------------------------------ *)
(* Durability ordering                                                 *)
(* ------------------------------------------------------------------ *)

let ops_of_trace trace = List.map fst trace

let durable_sequence =
  [ Faulty.Openfile; Faulty.Write; Faulty.Fsync; Faulty.Close; Faulty.Rename;
    Faulty.Fsync_dir ]

let test_checkpoint_write_order () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "state.ck" in
      let trace =
        with_plan ~tracing:true [] (fun () ->
            Checkpoint.write_atomically path fingerprint
              [ (("k", 0), outcome 5) ];
            Faulty.trace ())
      in
      check "fsync before rename, dir fsync after" true
        (ops_of_trace trace = durable_sequence))

let test_lease_save_order () =
  with_temp_dir (fun dir ->
      let trace =
        with_plan ~tracing:true [] (fun () ->
            Lease.save ~dir ~fingerprint
              {
                Lease.shard = 1;
                lo = 0;
                hi = 4;
                status = Lease.Running;
                owner = Unix.getpid ();
                heartbeat = 1.0;
                attempts = 1;
              };
            Faulty.trace ())
      in
      check "lease save has the same durable sequence" true
        (ops_of_trace trace = durable_sequence))

(* ------------------------------------------------------------------ *)
(* Stale temp sweeps                                                   *)
(* ------------------------------------------------------------------ *)

let write_junk path =
  let oc = open_out path in
  output_string oc "junk from a dead writer";
  close_out oc

let dead_pid () =
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; child_flag; "exit0" |]
      Unix.stdin Unix.stdout Unix.stderr
  in
  ignore (Sysx.waitpid [] pid);
  pid

let test_checkpoint_tmp_sweep () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "state.ck" in
      let tmp = Printf.sprintf "%s.%d.tmp" path (dead_pid ()) in
      write_junk tmp;
      let ilog = Incident_log.open_ (Filename.concat dir "inc.jsonl") in
      let cp = Checkpoint.open_ ~incidents:ilog ~fingerprint path in
      Checkpoint.close cp;
      Incident_log.close ilog;
      check "tmp swept on open" false (Sys.file_exists tmp);
      let body = read_file (Filename.concat dir "inc.jsonl") in
      check "typed incident recorded" true
        (let has s sub =
           let n = String.length sub in
           let rec go i =
             i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
           in
           go 0
         in
         has body "stale_tmp_swept"))

let test_lease_sweep_dead_only () =
  with_temp_dir (fun dir ->
      let dead = dead_pid () and me = Unix.getpid () in
      let stale =
        Filename.concat dir (Printf.sprintf "shard-0001.lease.%d.tmp" dead)
      in
      let live =
        Filename.concat dir (Printf.sprintf "shard-0002.lease.%d.tmp" me)
      in
      let unrelated = Filename.concat dir "state.ck.tmp" in
      List.iter write_junk [ stale; live; unrelated ];
      let ilog = Incident_log.open_ (Filename.concat dir "inc.jsonl") in
      let swept = Durable.sweep_tmps ~incidents:ilog dir in
      Incident_log.close ilog;
      check_int "exactly the dead writer's tmp" 1 swept;
      check "dead-pid tmp removed" false (Sys.file_exists stale);
      check "live writer's tmp kept" true (Sys.file_exists live);
      check "non-lease tmp untouched" true (Sys.file_exists unrelated))

(* ------------------------------------------------------------------ *)
(* A real crash at the rename boundary                                 *)
(* ------------------------------------------------------------------ *)

let test_crash_before_rename () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "state.ck" in
      let old_records = [ (("k", 0), outcome 7) ] in
      Checkpoint.write_atomically path fingerprint old_records;
      let tmp =
        match spawn_child [ "crash-writer"; path ] with
        | child, Unix.WEXITED 70 -> Printf.sprintf "%s.%d.tmp" path child
        | _, st ->
            Alcotest.failf "child did not die at the faulted rename: %s"
              (match st with
              | Unix.WEXITED c -> Printf.sprintf "exit %d" c
              | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
              | Unix.WSTOPPED s -> Printf.sprintf "stopped %d" s)
      in
      check "unrenamed tmp left behind" true (Sys.file_exists tmp);
      let cp = Checkpoint.open_ ~resume:true ~fingerprint path in
      check_int "old record set intact" 1 (Checkpoint.loaded cp);
      check "no corruption reported" true
        ((Checkpoint.load_report cp).Checkpoint.corrupted = []);
      check "recovery open swept the tmp" false (Sys.file_exists tmp);
      Checkpoint.close cp)

(* ------------------------------------------------------------------ *)
(* Pinned formats and sweep scope                                      *)
(* ------------------------------------------------------------------ *)

(* Byte-for-byte pins of the three framed formats, captured before they
   moved onto the shared durable-file layer: a checkpoint (atomic header
   write plus an appended record), a lease, and a fresh ledger
   partition's first batch. *)
let test_golden_bytes () =
  with_temp_dir (fun dir ->
      let key = "k=2|n=9" in
      let path = Filename.concat dir "state.ck" in
      Checkpoint.write_atomically path fingerprint
        [
          ((key, 0), outcome 17);
          ( (key, 1),
            Stats.of_verdict ~attempts:2 ~degraded:true
              (Stats.Finished
                 {
                   reason =
                     Engine.Cycle_detected { first_visit = 3; period = 4 };
                   steps = 12;
                 }) );
        ];
      let cp = Checkpoint.open_ ~resume:true ~fingerprint path in
      Checkpoint.record cp ~key ~trial:2
        (Stats.of_verdict ~attempts:3 ~quarantined:true
           (Stats.Crashed { exn = "Failure(\"boom\")"; backtrace = "a\tb\nc" }));
      Checkpoint.close cp;
      check_str "checkpoint bytes"
        "# ncg-checkpoint v2\tfaulty-suite fp=1\n\
         97944967\t21\tk=2|n=9\t0\tok\t17\t1\t0\t0\n\
         8d805c38\t28\tk=2|n=9\t1\tcycle\t12\t3\t4\t2\t1\t0\n\
         f152790c\t47\tk=2|n=9\t2\terror\tFailure(\\\"boom\\\")\ta\\tb\\nc\t3\t0\t1\n"
        (read_file path);
      Lease.save ~dir ~fingerprint
        {
          Lease.shard = 1;
          lo = 0;
          hi = 4;
          status = Lease.Running;
          owner = 4242;
          heartbeat = 5.0;
          attempts = 1;
        };
      check_str "lease bytes"
        "# ncg-lease v1\tfaulty-suite fp=1\n\
         7c835572\t29\t1\t0\t4\trunning\t4242\t5.000000\t1\n"
        (read_file (Lease.path ~dir ~shard:1));
      let module Ledger = Ncg_search.Cartography.Ledger in
      Ledger.append ~dir ~fingerprint ~part:3 [ (0, "5;0,1"); (1, "5;1,2") ];
      check_str "ledger bytes"
        "# ncg-carto-ledger v1\tfaulty-suite fp=1\n\
         106fedb6\t7\t0\t5;0,1\n\
         2ed3dd8f\t7\t1\t5;1,2\n"
        (read_file (Ledger.path ~dir ~part:3));
      check "no temp left behind" true
        (Array.for_all
           (fun name -> not (Filename.check_suffix name ".tmp"))
           (Sys.readdir dir)))

(* A checkpoint may live in a shared directory (the user's cwd), so its
   open sweeps its own dead writers' temps and nothing else. *)
let test_checkpoint_sweep_scope () =
  with_temp_dir (fun dir ->
      let dead = dead_pid () in
      let tmp name = Filename.concat dir (Printf.sprintf "%s.%d.tmp" name dead) in
      let own = tmp "state.ck" and sibling = tmp "other.ck" in
      let unrelated = tmp "notes" in
      List.iter write_junk [ own; sibling; unrelated ];
      let ilog_path = Filename.concat dir "inc.jsonl" in
      let ilog = Incident_log.open_ ilog_path in
      let cp =
        Checkpoint.open_ ~incidents:ilog ~fingerprint
          (Filename.concat dir "state.ck")
      in
      Checkpoint.close cp;
      Incident_log.close ilog;
      check "own dead temp removed" false (Sys.file_exists own);
      check "another checkpoint's temp kept" true (Sys.file_exists sibling);
      check "unrelated temp kept" true (Sys.file_exists unrelated);
      check_str "one incident, naming the dead owner"
        (Incident_log.json_of_event
           (Incident_log.Stale_tmp_swept { path = own; owner = dead })
        ^ "\n")
        (read_file ilog_path))

(* ------------------------------------------------------------------ *)
(* Signalling                                                          *)
(* ------------------------------------------------------------------ *)

(* kill(0, _) would signal our own process group: a supervisor reading
   an unclaimed lease's owner 0 must get an error, not kill itself. *)
let test_kill_refuses_non_positive_pid () =
  check "pid 0 refused" true
    (match Sysx.kill 0 0 with
    | exception Invalid_argument _ -> true
    | () -> false)

let suite =
  ( "faulty",
    [
      Alcotest.test_case "plan grammar roundtrips and rejects" `Quick
        test_plan_roundtrip;
      Alcotest.test_case "write_all resumes injected 1-byte writes" `Quick
        test_short_write_resume;
      Alcotest.test_case "EINTR storms exercise the retry loops" `Quick
        test_eintr_storm;
      Alcotest.test_case "injected ENOSPC propagates typed" `Quick
        test_err_propagates;
      Alcotest.test_case "checkpoint rewrite fsyncs before rename" `Quick
        test_checkpoint_write_order;
      Alcotest.test_case "lease save fsyncs before rename" `Quick
        test_lease_save_order;
      Alcotest.test_case "checkpoint open sweeps stale tmp, typed" `Quick
        test_checkpoint_tmp_sweep;
      Alcotest.test_case "lease sweep removes dead writers only" `Quick
        test_lease_sweep_dead_only;
      Alcotest.test_case "crash before rename keeps the old file" `Quick
        test_crash_before_rename;
      Alcotest.test_case "Sysx.kill refuses pid <= 0" `Quick
        test_kill_refuses_non_positive_pid;
      Alcotest.test_case "durable formats match pinned bytes" `Quick
        test_golden_bytes;
      Alcotest.test_case "checkpoint sweeps only its own temps" `Quick
        test_checkpoint_sweep_scope;
    ] )
