(* Tests for the crash-tolerant distributed cartographer: state codec,
   durable ledger, wave-synchronous exploration vs the single-process
   explorer, crash recovery / exactly-once replay, and the subprocess
   supervisor.  Like the fleet suite, the subprocess tests re-execute
   this test binary in a child mode intercepted by [maybe_run_child]. *)
open Ncg_graph
open Ncg_game
open Ncg_search
open Ncg_experiments
module C = Cartography

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* Run directories nest wave subdirectories, so cleanup is recursive. *)
let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter
        (fun name -> rm_rf (Filename.concat path name))
        (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())
  | exception Unix.Unix_error _ -> ()

let with_temp_dir f =
  let dir = Filename.temp_file "ncg_carto" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let fig2_spec () =
  match C.point_spec "fig2-br" with
  | Some s -> s
  | None -> Alcotest.fail "fig2-br point missing"

let in_process_config ~dir = C.default_config ~dir

(* ------------------------------------------------------------------ *)
(* State codec                                                         *)
(* ------------------------------------------------------------------ *)

let test_codec_roundtrip () =
  let owned =
    let g = Graph.create 5 in
    Graph.add_edge g ~owner:0 0 1;
    Graph.add_edge g ~owner:2 1 2;
    Graph.add_edge g ~owner:4 2 4;
    Graph.add_edge g ~owner:3 0 3;
    g
  in
  List.iter
    (fun g ->
      let enc = C.encode_state g in
      let g' = C.decode_state enc in
      check_str "encode . decode = id on encodings" enc (C.encode_state g');
      check_str "canonical key survives" (Canonical.key g) (Canonical.key g'))
    [ Gen.path 5; Gen.star 6; Gen.double_star 2 3; owned;
      (fig2_spec ()).C.initial; Graph.create 3 ]

let test_codec_rejects_malformed () =
  List.iter
    (fun s ->
      check (Printf.sprintf "rejects %S" s) true
        (match C.decode_state s with
        | exception Failure _ -> true
        | _ -> false))
    [ ""; "x"; "3;01"; "3;0,5"; "3;0,0"; "3;-1,2"; "2;0,1;"; "-4" ]

(* ------------------------------------------------------------------ *)
(* Ledger                                                              *)
(* ------------------------------------------------------------------ *)

let fp_test = "carto test fp"

let test_ledger_roundtrip () =
  with_temp_dir (fun dir ->
      let part = 0 in
      C.Ledger.append ~dir ~fingerprint:fp_test ~part [ (0, "a"); (1, "b") ];
      C.Ledger.append ~dir ~fingerprint:fp_test ~part [ (2, "c") ];
      (match C.Ledger.load_part ~dir ~fingerprint:fp_test ~part with
      | Ok { C.Ledger.entries; torn_tail } ->
          check "no torn tail" false torn_tail;
          check "append order preserved" true
            (entries = [ (0, "a"); (1, "b"); (2, "c") ])
      | Error e -> Alcotest.failf "load failed: %s" e);
      (* a missing partition is an empty Ok, a foreign one an Error *)
      (match C.Ledger.load_part ~dir ~fingerprint:fp_test ~part:1 with
      | Ok { C.Ledger.entries = []; torn_tail = false } -> ()
      | _ -> Alcotest.fail "missing partition should be empty Ok");
      match C.Ledger.load_part ~dir ~fingerprint:"other fp" ~part with
      | Error e -> check "foreign fingerprint" true (Astring_like.contains e "fingerprint")
      | Ok _ -> Alcotest.fail "accepted a foreign ledger")

let test_ledger_torn_tail_is_prefix () =
  with_temp_dir (fun dir ->
      let part = 3 in
      C.Ledger.append ~dir ~fingerprint:fp_test ~part
        [ (0, "aaa"); (0, "bbb"); (1, "ccc") ];
      let p = C.Ledger.path ~dir ~part in
      (* SIGKILL mid-append tears the last record mid-line *)
      let size = (Unix.stat p).Unix.st_size in
      let fd = Unix.openfile p [ Unix.O_WRONLY ] 0 in
      Unix.ftruncate fd (size - 4);
      Unix.close fd;
      (match C.Ledger.load_part ~dir ~fingerprint:fp_test ~part with
      | Ok { C.Ledger.entries; torn_tail } ->
          check "torn tail flagged" true torn_tail;
          check "surviving records are the contiguous prefix" true
            (entries = [ (0, "aaa"); (0, "bbb") ])
      | Error e -> Alcotest.failf "torn tail should still load: %s" e);
      (* load_all refuses an unrepaired tear: recovery must run first *)
      (match C.Ledger.load_all ~dir ~fingerprint:fp_test with
      | Error e -> check "load_all refuses tear" true (Astring_like.contains e "torn")
      | Ok _ -> Alcotest.fail "load_all accepted a torn partition");
      (* rollback sheds the tear; then load_all succeeds *)
      ignore (C.Ledger.rollback ~dir ~fingerprint:fp_test ~max_wave:99);
      match C.Ledger.load_all ~dir ~fingerprint:fp_test with
      | Ok seen -> check_int "repaired" 2 (Hashtbl.length seen)
      | Error e -> Alcotest.failf "load_all after repair: %s" e)

let test_ledger_midfile_corruption_is_error () =
  with_temp_dir (fun dir ->
      let part = 5 in
      C.Ledger.append ~dir ~fingerprint:fp_test ~part [ (0, "aaa"); (0, "bbb") ];
      let p = C.Ledger.path ~dir ~part in
      let content = In_channel.with_open_bin p In_channel.input_all in
      (* flip a byte inside the FIRST record: damage, not a crash tail *)
      let lines = String.split_on_char '\n' content in
      let damaged =
        match lines with
        | hdr :: r1 :: rest ->
            let b = Bytes.of_string r1 in
            Bytes.set b (Bytes.length b - 1) '!';
            String.concat "\n" (hdr :: Bytes.to_string b :: rest)
        | _ -> Alcotest.fail "unexpected ledger layout"
      in
      Out_channel.with_open_bin p (fun oc -> Out_channel.output_string oc damaged);
      match C.Ledger.load_part ~dir ~fingerprint:fp_test ~part with
      | Error e -> check "mid-file damage surfaced" true (Astring_like.contains e "mid-file")
      | Ok _ -> Alcotest.fail "accepted mid-file corruption")

let test_ledger_rollback () =
  with_temp_dir (fun dir ->
      (* spread records over two partitions, waves 0..3 *)
      C.Ledger.append ~dir ~fingerprint:fp_test ~part:0
        [ (0, "a"); (1, "b"); (2, "c"); (3, "d") ];
      C.Ledger.append ~dir ~fingerprint:fp_test ~part:1 [ (1, "e"); (3, "f") ];
      check_int "drops every record past the committed prefix" 3
        (C.Ledger.rollback ~dir ~fingerprint:fp_test ~max_wave:1);
      check_int "idempotent" 0 (C.Ledger.rollback ~dir ~fingerprint:fp_test ~max_wave:1);
      match C.Ledger.load_all ~dir ~fingerprint:fp_test with
      | Ok seen ->
          check_int "survivors" 3 (Hashtbl.length seen);
          List.iter
            (fun k -> check ("kept " ^ k) true (Hashtbl.mem seen k))
            [ "a"; "b"; "e" ]
      | Error e -> Alcotest.failf "load_all: %s" e)

(* ------------------------------------------------------------------ *)
(* In-process runs vs the single-process explorer                      *)
(* ------------------------------------------------------------------ *)

let test_fig2_matches_statespace () =
  with_temp_dir (fun dir ->
      let spec = fig2_spec () in
      let r = C.run (in_process_config ~dir) spec in
      let e =
        Statespace.explore ~max_states:spec.C.max_states
          ~rule:Statespace.Best_responses spec.C.model spec.C.initial
      in
      check_int "explored = single-process" e.Statespace.explored r.C.explored;
      check "stable sets identical" true
        (List.sort compare e.Statespace.stable = List.map fst r.C.stable);
      check "fig2 BR cycle found" true r.C.has_cycle;
      check_int "the 3-cycle is the largest SCC" 3 r.C.largest_scc;
      check_int "and the only nontrivial one" 1 r.C.nontrivial_sccs;
      check "fresh run" false r.C.resumed;
      check "not truncated" false r.C.truncated;
      check_int "nothing rolled back" 0 r.C.rolled_back;
      (* verdict agrees with the cycle hunter *)
      check "find_cycle agrees" true
        (match
           Statespace.find_cycle ~rule:Statespace.Best_responses spec.C.model
             spec.C.initial
         with
        | `Cycle _ -> r.C.has_cycle
        | `Acyclic -> not r.C.has_cycle
        | `Truncated -> false);
      (* the sink encodings decode to genuinely stable networks *)
      List.iter
        (fun (_, enc) ->
          check "decoded sink is stable" true
            (Response.is_stable spec.C.model (C.decode_state enc)))
        r.C.stable;
      (* exactly-once: the ledger holds exactly the committed region *)
      (match C.Ledger.load_all ~dir ~fingerprint:(C.fingerprint spec) with
      | Ok seen -> check_int "ledger = region" r.C.explored (Hashtbl.length seen)
      | Error e -> Alcotest.failf "ledger: %s" e);
      (* resuming a finished run re-derives the identical report *)
      let r2 = C.run (in_process_config ~dir) spec in
      check "resume flagged" true r2.C.resumed;
      check_str "identical fingerprint on resume" r.C.region_fingerprint
        r2.C.region_fingerprint;
      check_int "identical region on resume" r.C.explored r2.C.explored)

let test_chunking_invariance () =
  let spec = fig2_spec () in
  let fp_of chunk_size =
    with_temp_dir (fun dir ->
        let r = C.run { (in_process_config ~dir) with C.chunk_size } spec in
        r.C.region_fingerprint)
  in
  let reference = fp_of 64 in
  check_str "chunk size 1 explores the same region" reference (fp_of 1);
  check_str "chunk size 2 explores the same region" reference (fp_of 2);
  (* and a resume may change the chunking mid-run *)
  with_temp_dir (fun dir ->
      let crashed = ref false in
      (try
         ignore
           (C.run
              {
                (in_process_config ~dir) with
                C.chunk_size = 1;
                on_wave =
                  Some
                    (fun ~wave ~frontier:_ ~explored:_ ->
                      if wave >= 1 then failwith "injected-crash");
              }
              spec)
       with Failure m when Astring_like.contains m "injected-crash" ->
         crashed := true);
      check "crash injected" true !crashed;
      let r = C.run { (in_process_config ~dir) with C.chunk_size = 3 } spec in
      check "resumed" true r.C.resumed;
      check_str "rechunked resume, identical region" reference
        r.C.region_fingerprint)

let test_small_n_matrix_matches_statespace () =
  (* Satellite: full game-type matrix.  Distributed output must agree
     with Statespace.explore state for state, and the sinks must classify
     identically whether the representative came from the in-memory
     explorer or was decoded from the durable artifacts. *)
  let n = 4 in
  List.iter
    (fun game ->
      List.iter
        (fun dist ->
          let model = Model.make game dist n in
          let tag =
            Printf.sprintf "matrix-%s-%s"
              (String.lowercase_ascii (Model.game_name model))
              (match dist with Model.Sum -> "sum" | Model.Max -> "max")
          in
          let spec =
            {
              C.tag;
              model;
              initial = Gen.path n;
              rule = Statespace.All_improving;
              key_mode = C.Exact;
              max_states = 20_000;
            }
          in
          let e =
            Statespace.explore ~max_states:20_000 model (Gen.path n)
          in
          let r = with_temp_dir (fun dir -> C.run (in_process_config ~dir) spec) in
          check_int (tag ^ ": explored") e.Statespace.explored r.C.explored;
          check (tag ^ ": not truncated") false
            (e.Statespace.truncated || r.C.truncated);
          let single = List.sort compare e.Statespace.stable in
          check (tag ^ ": stable keys") true (single = List.map fst r.C.stable);
          (* sink classification: single-process representative vs decoded
             distributed encoding *)
          let reps =
            List.combine e.Statespace.stable e.Statespace.stable_reps
          in
          List.iter
            (fun (key, enc) ->
              let mine = C.decode_state enc in
              let theirs = List.assoc key reps in
              check (tag ^ ": sink class agrees") true
                (Classify.classify_sink model mine
                = Classify.classify_sink model theirs))
            r.C.stable)
        [ Model.Sum; Model.Max ])
    [ Model.Sg; Model.Asg; Model.Gbg; Model.Bg; Model.Bilateral ]

let test_iso_mode_deterministic () =
  let spec = { (fig2_spec ()) with C.key_mode = C.Iso } in
  let run () =
    with_temp_dir (fun dir -> C.run (in_process_config ~dir) spec)
  in
  let r1 = run () and r2 = run () in
  check_str "iso runs reproducible" r1.C.region_fingerprint
    r2.C.region_fingerprint;
  let exact = with_temp_dir (fun dir -> C.run (in_process_config ~dir) (fig2_spec ())) in
  check "iso quotient no larger than exact region" true
    (r1.C.explored <= exact.C.explored);
  check "the BR cycle survives the quotient" true r1.C.has_cycle

let test_budget_truncation () =
  let spec = { (fig2_spec ()) with C.max_states = 3 } in
  let r = with_temp_dir (fun dir -> C.run (in_process_config ~dir) spec) in
  check "truncation flagged" true r.C.truncated;
  check "bounded" true (r.C.explored <= 3)

let test_meta_guard () =
  with_temp_dir (fun dir ->
      ignore (C.run (in_process_config ~dir) (fig2_spec ()));
      let other =
        match C.point_spec "fig2-imp" with
        | Some s -> s
        | None -> Alcotest.fail "fig2-imp point missing"
      in
      check "directory refuses a different exploration" true
        (match C.run (in_process_config ~dir) other with
        | exception Failure m -> Astring_like.contains m "belongs to"
        | _ -> false))

(* ------------------------------------------------------------------ *)
(* Crash recovery: rollback, phantom records, torn tails               *)
(* ------------------------------------------------------------------ *)

let test_recovery_rolls_back_uncommitted_ledger () =
  let spec = fig2_spec () in
  let fp = C.fingerprint spec in
  let reference =
    with_temp_dir (fun dir -> C.run (in_process_config ~dir) spec)
  in
  with_temp_dir (fun dir ->
      (* crash after wave 1's commit: frontiers 0..2 exist *)
      (try
         ignore
           (C.run
              {
                (in_process_config ~dir) with
                C.on_wave =
                  Some
                    (fun ~wave ~frontier:_ ~explored:_ ->
                      if wave >= 1 then failwith "injected-crash");
              }
              spec)
       with Failure m when Astring_like.contains m "injected-crash" -> ());
      (* simulate the ledger running ahead of a frontier rename the crash
         prevented: phantom records of an uncommitted wave ... *)
      List.iter
        (fun key ->
          C.Ledger.append ~dir ~fingerprint:fp
            ~part:(C.Ledger.part_of_key key) [ (3, key) ])
        [ "7;0,1"; "7;1,2" ];
      (* ... plus a torn tail on a partition, as SIGKILL mid-append leaves *)
      let torn_part = C.Ledger.part_of_key "7;0,1" in
      let p = C.Ledger.path ~dir ~part:torn_part in
      let fd = Unix.openfile p [ Unix.O_WRONLY; Unix.O_APPEND ] 0 in
      ignore (Unix.write_substring fd "zz" 0 2);
      Unix.close fd;
      let r = C.run (in_process_config ~dir) spec in
      check "resumed" true r.C.resumed;
      check_int "both phantoms rolled back" 2 r.C.rolled_back;
      check_str "recovered region identical" reference.C.region_fingerprint
        r.C.region_fingerprint;
      check_int "no state lost or double-counted" reference.C.explored
        r.C.explored;
      (* after recovery the ledger again holds exactly the region *)
      match C.Ledger.load_all ~dir ~fingerprint:fp with
      | Ok seen -> check_int "ledger = region" r.C.explored (Hashtbl.length seen)
      | Error e -> Alcotest.failf "ledger after recovery: %s" e)

(* ------------------------------------------------------------------ *)
(* Worker protocol                                                     *)
(* ------------------------------------------------------------------ *)

let test_worker_requires_running_lease () =
  with_temp_dir (fun dir ->
      let spec = fig2_spec () in
      (* no lease at all *)
      let wdir = Filename.concat dir "wave-0000" in
      Unix.mkdir wdir 0o755;
      (match
         C.worker ~dir ~wave:0 ~chunk:0 ~heartbeat_interval:0.01 spec
       with
      | Error _ -> ()
      | Ok () -> Alcotest.fail "worker ran without a lease");
      (* a lease that is not Running (e.g. already Done) must be refused:
         the supervisor owns all transitions into Running *)
      let lfp = C.fingerprint spec ^ " wave=0" in
      Lease.save ~dir:wdir ~fingerprint:lfp
        {
          Lease.shard = 0; lo = 0; hi = 1; status = Lease.Done; owner = 0;
          heartbeat = 0.0; attempts = 1;
        };
      match C.worker ~dir ~wave:0 ~chunk:0 ~heartbeat_interval:0.01 spec with
      | Error e -> check "refused" true (Astring_like.contains e "not running")
      | Ok () -> Alcotest.fail "worker ran a Done lease")

(* ------------------------------------------------------------------ *)
(* Subprocess supervision (re-exec children)                           *)
(* ------------------------------------------------------------------ *)

let child_flag = "--ncg-carto-child"

let worker_child = function
  | [ dir; point; wave; chunk ] -> (
      match C.point_spec point with
      | None ->
          prerr_endline ("unknown carto point " ^ point);
          exit 64
      | Some spec ->
          exit
            (match
               C.worker ~dir ~wave:(int_of_string wave)
                 ~chunk:(int_of_string chunk) ~heartbeat_interval:0.01 spec
             with
            | Ok () -> 0
            | Error _ -> 3
            | exception _ -> 4))
  | _ ->
      prerr_endline "bad carto worker-child arguments";
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
      Unix.kill (Unix.getpid ()) Sys.sigkill;
      exit 9
  | Some _ ->
      prerr_endline "unknown carto child mode";
      exit 64

let run_child args =
  Unix.create_process Sys.executable_name
    (Array.of_list (Sys.executable_name :: child_flag :: args))
    Unix.stdin Unix.stdout Unix.stderr

let test_supervise_subprocess_with_crash () =
  with_temp_dir (fun dir ->
      let point = "fig2-br" in
      let spec = fig2_spec () in
      let reference =
        with_temp_dir (fun d -> C.run (in_process_config ~dir:d) spec)
      in
      let spawned = ref 0 in
      let spawn ~wave ~chunk =
        incr spawned;
        (* the very first worker dies by SIGKILL before doing any work *)
        if !spawned = 1 then run_child [ "crash" ]
        else
          run_child
            [ "worker"; dir; point; string_of_int wave; string_of_int chunk ]
      in
      let cfg =
        {
          (in_process_config ~dir) with
          C.chunk_size = 1;
          workers = 2;
          heartbeat_timeout = 20.0;
          poll_interval = 0.01;
          max_respawns = 2;
          spawn = Some spawn;
        }
      in
      let r = C.run cfg spec in
      check "the dead worker was reassigned" true (r.C.respawns >= 1);
      check_str "crash does not change the region" reference.C.region_fingerprint
        r.C.region_fingerprint;
      check_int "explored matches" reference.C.explored r.C.explored;
      check "cycle still found" true r.C.has_cycle)

let test_supervise_aborts_hopeless_chunk () =
  with_temp_dir (fun dir ->
      let spec = fig2_spec () in
      let spawn ~wave:_ ~chunk:_ = run_child [ "crash" ] in
      let cfg =
        {
          (in_process_config ~dir) with
          C.workers = 1;
          poll_interval = 0.01;
          max_respawns = 1;
          spawn = Some spawn;
        }
      in
      (* an incomplete region is a wrong answer: the run must abort, not
         quarantine-and-continue like the trial fleet *)
      check "aborts after max_respawns" true
        (match C.run cfg spec with
        | exception Failure m -> Astring_like.contains m "attempts"
        | _ -> false))

(* ------------------------------------------------------------------ *)
(* Pinned artifacts and the temp sweep                                 *)
(* ------------------------------------------------------------------ *)

let rec files_under root rel =
  let p = if rel = "" then root else Filename.concat root rel in
  if Sys.is_directory p then
    Sys.readdir p |> Array.to_list |> List.sort compare
    |> List.concat_map (fun name ->
           files_under root (if rel = "" then name else Filename.concat rel name))
  else [ rel ]

(* Every artifact of the in-process Fig. 2 run, byte for byte, as the
   format stood before it moved onto the shared durable-file layer.
   Leases are left out: they record pids and monotonic heartbeats. *)
let test_fig2_artifacts_pinned () =
  with_temp_dir (fun dir ->
      let r = C.run (in_process_config ~dir) (fig2_spec ()) in
      check_str "region fingerprint" "f70aa211-6" r.C.region_fingerprint;
      let digests =
        files_under dir ""
        |> List.filter (fun rel -> not (Filename.check_suffix rel ".lease"))
        |> List.map (fun rel ->
               (rel, Digest.to_hex (Digest.file (Filename.concat dir rel))))
      in
      Alcotest.(check (list (pair string string)))
        "artifact digests"
        [
          ("carto.meta", "4fd960ff5b1ae4a126156cb57408c3fa");
          ("frontier-0000.fr", "ea50b2423873f9d85977e4258c2977ed");
          ("frontier-0001.fr", "4f9802612ce63e71c7422539d7581562");
          ("frontier-0002.fr", "e5107e5c04742561aaf15c49633cf92d");
          ("frontier-0003.fr", "73612dfb86c3cf963894000bfe459e6f");
          ("frontier-0004.fr", "b900179c9103f04e2237b46073ec7a78");
          ("ledger-01.led", "b7ab698aacd258584ec9b6e0a8c8cd73");
          ("ledger-04.led", "38c869ff7084310cec8b514dee2e719a");
          ("ledger-05.led", "c44d432abc7c12c726188b7faeffd560");
          ("ledger-07.led", "e4e2a14f47fc9bc22daf049f41b0e118");
          ("wave-0000/chunk-0000.arcs", "a3fc29e03e731e3959a9bef37e1ec3f5");
          ("wave-0001/chunk-0000.arcs", "111a6d5ab3cc7ebce7735db5bb285412");
          ("wave-0002/chunk-0000.arcs", "614fa8d0f6775a997a867a41d951444b");
          ("wave-0003/chunk-0000.arcs", "eb5d43f63be625baa8d8cbc5d8998b76");
        ]
        digests)

(* A run sweeps the temps of dead writers from the run directory and
   from every wave directory it takes over, and leaves a live writer's
   temp alone. *)
let test_run_sweeps_dead_temps () =
  with_temp_dir (fun dir ->
      let dead =
        let pid = run_child [ "crash" ] in
        ignore (Unix.waitpid [] pid);
        pid
      in
      let wdir = Filename.concat dir "wave-0000" in
      Unix.mkdir wdir 0o755;
      let tmp d name pid =
        Filename.concat d (Printf.sprintf "%s.%d.tmp" name pid)
      in
      let dead_frontier = tmp dir "frontier-0001.fr" dead in
      let dead_chunk = tmp wdir "chunk-0000.arcs" dead in
      (* our parent outlives us, and no run writes this name *)
      let live = tmp wdir "chunk-0000.arcs" (Unix.getppid ()) in
      List.iter
        (fun p -> Out_channel.with_open_bin p (fun oc -> output_string oc "junk"))
        [ dead_frontier; dead_chunk; live ];
      let ilog_path = Filename.concat dir "incidents.jsonl" in
      let log = Incident_log.open_ ilog_path in
      let r =
        Fun.protect
          ~finally:(fun () -> Incident_log.close log)
          (fun () ->
            C.run { (in_process_config ~dir) with C.incidents = Some log }
              (fig2_spec ()))
      in
      check "a fresh run, not a resume" false r.C.resumed;
      check "dead frontier temp removed" false (Sys.file_exists dead_frontier);
      check "dead chunk temp removed" false (Sys.file_exists dead_chunk);
      check "live writer's temp kept" true (Sys.file_exists live);
      let swept =
        In_channel.with_open_bin ilog_path In_channel.input_all
        |> String.split_on_char '\n'
        |> List.filter (fun l -> Astring_like.contains l "stale_tmp_swept")
      in
      Alcotest.(check (list string))
        "one typed incident per dead temp"
        (List.sort compare
           (List.map
              (fun path ->
                Incident_log.json_of_event
                  (Incident_log.Stale_tmp_swept { path; owner = dead }))
              [ dead_frontier; dead_chunk ]))
        (List.sort compare swept))

(* The run report is CI's artifact: pin its exact bytes for a fixed
   report, sinks with characters the codec must escape included. *)
let test_report_json_pinned () =
  let report =
    {
      C.explored = 42;
      stable =
        [ ("3;0,1<;1,2>", "enc0"); ("q\"b\\s\nn\tt\001\031 café", "enc1") ];
      waves = 5;
      arcs = 77;
      has_cycle = true;
      largest_scc = 3;
      nontrivial_sccs = 1;
      truncated = false;
      respawns = 2;
      resumed = false;
      rolled_back = 0;
      region_fingerprint = "0badc0de-42";
    }
  in
  check_str "full report"
    {|{"explored":42,"waves":5,"arcs":77,"stable":["3;0,1<;1,2>","q\"b\\s\nn\tt\u0001\u001f café"],"has_cycle":true,"largest_scc":3,"nontrivial_sccs":1,"truncated":false,"respawns":2,"resumed":false,"rolled_back":0,"region_fingerprint":"0badc0de-42"}|}
    (C.report_json report);
  check_str "no sinks, flags flipped"
    {|{"explored":42,"waves":5,"arcs":77,"stable":[],"has_cycle":false,"largest_scc":3,"nontrivial_sccs":1,"truncated":true,"respawns":0,"resumed":true,"rolled_back":7,"region_fingerprint":"0badc0de-42"}|}
    (C.report_json
       { report with stable = []; has_cycle = false; truncated = true;
         resumed = true; rolled_back = 7; respawns = 0 })

let suite =
  ( "carto",
    [
      Alcotest.test_case "state codec roundtrip" `Quick test_codec_roundtrip;
      Alcotest.test_case "state codec rejects malformed" `Quick
        test_codec_rejects_malformed;
      Alcotest.test_case "ledger roundtrip" `Quick test_ledger_roundtrip;
      Alcotest.test_case "ledger torn tail is a prefix" `Quick
        test_ledger_torn_tail_is_prefix;
      Alcotest.test_case "ledger mid-file corruption is an error" `Quick
        test_ledger_midfile_corruption_is_error;
      Alcotest.test_case "ledger rollback" `Quick test_ledger_rollback;
      Alcotest.test_case "fig2 = single-process explorer" `Quick
        test_fig2_matches_statespace;
      Alcotest.test_case "chunking invariance + rechunked resume" `Quick
        test_chunking_invariance;
      Alcotest.test_case "small-n matrix = single-process explorer" `Slow
        test_small_n_matrix_matches_statespace;
      Alcotest.test_case "iso keying deterministic" `Quick
        test_iso_mode_deterministic;
      Alcotest.test_case "budget truncation" `Quick test_budget_truncation;
      Alcotest.test_case "meta guard" `Quick test_meta_guard;
      Alcotest.test_case "recovery rolls back uncommitted ledger" `Quick
        test_recovery_rolls_back_uncommitted_ledger;
      Alcotest.test_case "worker requires a running lease" `Quick
        test_worker_requires_running_lease;
      Alcotest.test_case "supervise subprocess with crash" `Quick
        test_supervise_subprocess_with_crash;
      Alcotest.test_case "supervise aborts hopeless chunk" `Quick
        test_supervise_aborts_hopeless_chunk;
      Alcotest.test_case "fig2 artifacts match pinned digests" `Quick
        test_fig2_artifacts_pinned;
      Alcotest.test_case "run sweeps dead writers' temps" `Quick
        test_run_sweeps_dead_temps;
      Alcotest.test_case "report json pinned" `Quick test_report_json_pinned;
    ] )
