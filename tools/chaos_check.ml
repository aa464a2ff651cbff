(* chaos_check: subprocess chaos test of the ncg_sim binary.

     dune exec tools/chaos_check.exe -- --sim _build/default/bin/ncg_sim.exe

   A SIGINT mid-sweep must flush the checkpoint and print a resume hint
   before exiting 130, and without a checkpoint must still stop within
   one batch; SIGTERM must exit 143; a sweep killed hard with SIGKILL
   must complete under `--resume` without rerunning the trials that
   survived on disk; out-of-range counts must be usage errors.
   `--fleet-soak` adds the soak (worker SIGKILL storm, SIGSTOP stall,
   supervisor SIGKILL + rerun) against the fleet.  Prints a PASS/FAIL
   line per check and exits 1 on any FAIL, 2 without `--sim`.  (The
   auditor's fault matrix and the pool's fault containment are unit
   tests: the [core] and [parallel] suites.) *)

open Ncg_core

let failures = ref 0

let check name ok =
  Printf.printf "  [%s] %s\n" (if ok then "PASS" else "FAIL") name;
  if not ok then incr failures

(* ------------------------------------------------------------------ *)
(* Subprocess chaos: interrupt and hard-kill the real binary           *)
(* ------------------------------------------------------------------ *)

let read_file path =
  match open_in_bin path with
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
  | exception Sys_error _ -> ""

let count_lines path =
  String.fold_left
    (fun acc c -> if c = '\n' then acc + 1 else acc)
    0 (read_file path)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1))
  in
  nn = 0 || go 0

let remove_quietly path = try Sys.remove path with Sys_error _ -> ()

let spawn sim args ~out ~err =
  let open_to path =
    Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let out_fd = open_to out and err_fd = open_to err in
  let pid =
    Unix.create_process sim
      (Array.of_list (sim :: args))
      Unix.stdin out_fd err_fd
  in
  Unix.close out_fd;
  Unix.close err_fd;
  pid

(* Poll for [pred] every 10 ms until [timeout] seconds have passed on the
   monotonic clock; checkpoint records land within the first batch
   (8 * domains trials), so the wait is normally tens of ms. *)
let wait_for ?(timeout = 60.0) pred =
  let deadline = Clock.monotonic () +. timeout in
  let rec go () =
    pred ()
    || Clock.monotonic () <= deadline
       && begin
            Unix.sleepf 0.01;
            go ()
          end
  in
  go ()

let kill_quietly ?(signal = Sys.sigkill) pid =
  try Unix.kill pid signal with Unix.Unix_error _ -> ()

let temp_prefix tag =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "chaos_%s_%d" tag (Unix.getpid ()))

(* A sweep far too large to finish gets SIGINT once the first batch is on
   disk: the run must stop with the conventional 128+2, keep the recorded
   trials, and tell the user how to resume. *)
let sigint_flushes_checkpoint sim =
  print_endline "subprocess interruption (SIGINT):";
  let prefix = temp_prefix "sigint" in
  let ck = prefix ^ ".ck" and out = prefix ^ ".out" and err = prefix ^ ".err" in
  remove_quietly ck;
  let pid =
    spawn sim
      [ "fig7"; "--ns"; "24"; "--trials"; "100000"; "--seed"; "3";
        "--domains"; "2"; "--checkpoint"; ck ]
      ~out ~err
  in
  check "a trial was checkpointed before the interrupt"
    (wait_for (fun () -> count_lines ck >= 2));
  Unix.kill pid Sys.sigint;
  let _, status = Unix.waitpid [] pid in
  check "interrupted sweep exits 130" (status = Unix.WEXITED 130);
  check "completed trials survive on disk" (count_lines ck >= 2);
  let hint = read_file err in
  check "stderr carries the resume hint"
    (contains hint "Resume with:" && contains hint ck);
  List.iter remove_quietly [ ck; out; err ]

(* Without a checkpoint a sweep still stops within one batch (16 trials
   at two domains) of a SIGINT: it exits 130 promptly and says the
   completed trials are lost.  One still running at the deadline is
   killed, and the check fails. *)
let sigint_without_checkpoint sim =
  print_endline "subprocess interruption without a checkpoint (SIGINT):";
  let prefix = temp_prefix "sigint_bare" in
  let out = prefix ^ ".out" and err = prefix ^ ".err" in
  let pid =
    spawn sim
      [ "fig7"; "--ns"; "60"; "--trials"; "100000"; "--domains"; "2" ]
      ~out ~err
  in
  Unix.sleepf 1.0;
  Unix.kill pid Sys.sigint;
  let status = ref None in
  let exited =
    wait_for ~timeout:10.0 (fun () ->
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> false
        | _, s ->
            status := Some s;
            true)
  in
  if not exited then begin
    kill_quietly pid;
    ignore (Unix.waitpid [] pid)
  end;
  check "interrupted sweep exits 130 within 10 s"
    (!status = Some (Unix.WEXITED 130));
  check "stderr says the completed trials are lost"
    (contains (read_file err) "no --checkpoint was given");
  List.iter remove_quietly [ out; err ]

(* A small sweep killed hard — no handler runs, a torn tail is possible —
   must complete under --resume, with the loader reporting what it
   recovered and the sweep finishing normally. *)
let sigkill_then_resume sim =
  print_endline "subprocess hard kill + resume (SIGKILL):";
  let prefix = temp_prefix "sigkill" in
  let ck = prefix ^ ".ck" and out = prefix ^ ".out" and err = prefix ^ ".err" in
  remove_quietly ck;
  let args =
    [ "fig7"; "--ns"; "10"; "--trials"; "1000"; "--seed"; "5"; "--domains";
      "1"; "--checkpoint"; ck ]
  in
  let pid = spawn sim args ~out ~err in
  check "a trial was checkpointed before the kill"
    (wait_for (fun () -> count_lines ck >= 2));
  Unix.kill pid Sys.sigkill;
  (match Unix.waitpid [] pid with
  | _, Unix.WSIGNALED s -> check "sweep died from the kill" (s = Sys.sigkill)
  | _, Unix.WEXITED 0 ->
      (* pathological scheduling: the sweep finished first; the resume
         below still must be a no-op success *)
      check "sweep died from the kill (finished first)" true
  | _ -> check "sweep died from the kill" false);
  check "records survive the hard kill" (count_lines ck >= 2);
  let pid2 = spawn sim (args @ [ "--resume" ]) ~out ~err in
  let _, status = Unix.waitpid [] pid2 in
  check "resumed sweep completes cleanly" (status = Unix.WEXITED 0);
  let resumed = read_file out in
  check "resume reports the loaded checkpoint"
    (contains resumed "checkpoint");
  check "resumed sweep prints its results"
    (contains resumed "max steps / n");
  List.iter remove_quietly [ ck; out; err ]

(* SIGTERM must mirror the SIGINT path with the signal-accurate code:
   128+15 = 143, checkpoint flushed, resume hint printed. *)
let sigterm_exits_143 sim =
  print_endline "subprocess termination (SIGTERM):";
  let prefix = temp_prefix "sigterm" in
  let ck = prefix ^ ".ck" and out = prefix ^ ".out" and err = prefix ^ ".err" in
  remove_quietly ck;
  let pid =
    spawn sim
      [ "fig7"; "--ns"; "24"; "--trials"; "100000"; "--seed"; "3";
        "--domains"; "2"; "--checkpoint"; ck ]
      ~out ~err
  in
  check "a trial was checkpointed before the terminate"
    (wait_for (fun () -> count_lines ck >= 2));
  Unix.kill pid Sys.sigterm;
  let _, status = Unix.waitpid [] pid in
  check "terminated sweep exits 143" (status = Unix.WEXITED 143);
  check "completed trials survive on disk" (count_lines ck >= 2);
  check "stderr carries the resume hint"
    (contains (read_file err) "Resume with:");
  List.iter remove_quietly [ ck; out; err ]

(* Out-of-range counts must be cmdliner usage errors (exit 124), not a
   crash or a table of nan deep inside a run. *)
let out_of_range_counts_rejected sim =
  print_endline "subprocess usage errors (out-of-range counts):";
  let prefix = temp_prefix "usage" in
  let out = prefix ^ ".out" and err = prefix ^ ".err" in
  List.iter
    (fun args ->
      let _, status = Unix.waitpid [] (spawn sim args ~out ~err) in
      check
        (Printf.sprintf "%-40s exits 124" (String.concat " " args))
        (status = Unix.WEXITED 124 && contains (read_file err) "too small"))
    [
      [ "fig7"; "--trials=-3" ];
      [ "fig7"; "--max-retries=-1" ];
      [ "fleet"; "--cmd"; "fig7"; "--trials=0" ];
      [ "fig7"; "--trials=0" ];
      [ "fleet"; "--cmd"; "fig7"; "-n"; "1"; "--trials"; "2" ];
      [ "classify"; "fig2-max-sg"; "--max-states=0" ];
    ];
  List.iter remove_quietly [ out; err ]

(* ------------------------------------------------------------------ *)
(* Soak: kill storms against the supervised callers (the fleet)       *)
(* ------------------------------------------------------------------ *)

module E = Ncg_experiments

let rec rm_rf_quietly path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter
        (fun n -> rm_rf_quietly (Filename.concat path n))
        (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> remove_quietly path
  | exception Unix.Unix_error _ -> ()

(* The readable leases in [dir] under [fingerprint] — the same files the
   supervisor fences with. *)
let scan_leases (dir, fingerprint) =
  List.filter_map
    (fun shard -> Result.to_option (E.Lease.load ~dir ~fingerprint ~shard))
    (List.init 64 Fun.id)

let worker_pids leases =
  List.filter_map
    (fun l ->
      if l.E.Lease.status = E.Lease.Running && l.E.Lease.owner > 0 then
        Some l.E.Lease.owner
      else None)
    (scan_leases leases)

type leg = Storm | Stall | Resume

(* One supervised run: its ncg_sim arguments (the soak adds --dir and
   --incidents), the (lease dir, fingerprint) of its state dir, the line
   an undisturbed in-process run prints, and when enough is durable to
   kill its supervisor (the resume leg). *)
type run = {
  args : string list;
  leases : string -> string * string;
  identity : unit -> string;
  committed : string -> bool;
}

(* A caller of the soak, with the check names it has always printed. *)
type caller = {
  name : string;
  noun : string;
  run : leg -> run;
  reassigned : string;
  identical : leg -> string;
  committed_before_kill : string;
  extra : leg -> out:string -> incidents:string -> (string * bool) list;
}

(* The fleet's acceptance bar is the `summary: ...` line of a
   single-process run of the same pinned point, seed and trial count:
   bit-level agreement of the formatted statistics. *)
let fleet =
  let cmd = "fig11" and n = 40 in
  let run ~trials ~seed ~shards tuning =
    let fingerprint = E.Fleet.fingerprint ~cmd ~n ~trials ~seed in
    let leases dir = (dir, fingerprint) in
    {
      args =
        [ "fleet"; "--cmd"; cmd; "-n"; string_of_int n; "--trials";
          string_of_int trials; "--seed"; string_of_int seed; "--shards";
          string_of_int shards ]
        @ tuning;
      leases;
      identity =
        (fun () ->
          let point = Option.get (E.Fleet.point_spec cmd ~n) in
          "summary: "
          ^ Format.asprintf "%a" Stats.pp
              (E.Runner.run
                 ~domains:(Ncg_parallel.Pool.recommended_domains ())
                 ~seed ~trials point.E.Fleet.spec));
      committed =
        (fun dir ->
          List.length
            (List.filter
               (fun l -> l.E.Lease.status = E.Lease.Done)
               (scan_leases (leases dir)))
          >= 2);
    }
  in
  {
    name = "fleet";
    noun = "fleet";
    run =
      (function
      | Storm ->
          run ~trials:120 ~seed:17 ~shards:8
            [ "--workers"; "3"; "--max-respawns"; "12";
              "--heartbeat-timeout"; "30" ]
      | Stall ->
          run ~trials:60 ~seed:23 ~shards:6
            [ "--workers"; "2"; "--max-respawns"; "6";
              "--heartbeat-timeout"; "1.5"; "--heartbeat-interval"; "0.05" ]
      | Resume -> run ~trials:120 ~seed:17 ~shards:8 [ "--workers"; "2" ]);
    reassigned = "fleet reassigned the murdered shards";
    identical =
      (function
      | Storm -> "merged statistics are bit-identical to a single-process run"
      | Stall -> "statistics survive the stall bit for bit"
      | Resume -> "rerun statistics are bit-identical to a single-process run");
    committed_before_kill = "two shards were done before the kill";
    extra =
      (fun leg ~out ~incidents ->
        let present = contains out "missing=0" in
        match leg with
        | Storm ->
            [ ("fleet reports every trial present", present);
              ("no shard was quarantined",
               not (contains incidents "quarantined")) ]
        | Stall -> [ ("every trial still present", present) ]
        | Resume -> [ ("rerun reports every trial present", present) ]);
  }

(* Start [c]'s [leg] run on fresh state, let [disturb] do its worst to
   it, then check that the run printed the undisturbed identity line,
   plus the caller's own checks. *)
let soak sim c leg ~title ~tag disturb =
  Printf.printf "%s %s:\n" c.name title;
  let r = c.run leg in
  let prefix = temp_prefix (c.name ^ "_" ^ tag) in
  let dir = prefix ^ ".d" and inc = prefix ^ ".jsonl" in
  let out = prefix ^ ".out" and err = prefix ^ ".err" in
  rm_rf_quietly dir;
  remove_quietly inc;
  let start () =
    spawn sim (r.args @ [ "--dir"; dir; "--incidents"; inc ]) ~out ~err
  in
  disturb r ~dir ~out ~inc ~start;
  check (c.identical leg) (contains (read_file out) (r.identity ()));
  List.iter
    (fun (name, ok) -> check name ok)
    (c.extra leg ~out:(read_file out) ~incidents:(read_file inc));
  rm_rf_quietly dir;
  List.iter remove_quietly [ inc; out; err ]

(* SIGKILL storm: murder up to 4 distinct workers while the run is in
   progress; it must still complete, reassign every victim's work and
   log each death. *)
let kill_storm sim c =
  soak sim c Storm ~title:"kill storm (SIGKILL random workers)" ~tag:"storm"
    (fun r ~dir ~out ~inc ~start ->
      let pid = start () in
      let killed = Hashtbl.create 8 in
      let status = ref None in
      let running () =
        (match !status with
        | Some _ -> ()
        | None -> (
            match Unix.waitpid [ Unix.WNOHANG ] pid with
            | 0, _ -> ()
            | _, s -> status := Some s
            | exception Unix.Unix_error _ -> ()));
        !status = None
      in
      while running () && Hashtbl.length killed < 4 do
        List.iter
          (fun wpid ->
            if Hashtbl.length killed < 4 && not (Hashtbl.mem killed wpid)
            then begin
              Hashtbl.replace killed wpid ();
              kill_quietly wpid
            end)
          (worker_pids (r.leases dir));
        Unix.sleepf 0.05
      done;
      check "the storm killed at least one worker" (Hashtbl.length killed >= 1);
      if !status = None then status := Some (snd (Unix.waitpid [] pid));
      let text = read_file out and incidents = read_file inc in
      check (c.name ^ " under storm exits 0") (!status = Some (Unix.WEXITED 0));
      check c.reassigned
        (not (contains text "respawns=0 ") && contains text "respawns=");
      check "worker deaths were logged" (contains incidents "\"worker_dead\"");
      check "reassignments were logged" (contains incidents "\"reassigned\""))

(* SIGSTOP stall: a worker that is alive but making no progress (the
   kernel still reports it running) must be detected by its missed
   heartbeats, killed, and its work reassigned. *)
let stall_detection sim c =
  soak sim c Stall ~title:"stall detection (SIGSTOP a worker)" ~tag:"stall"
    (fun r ~dir ~out:_ ~inc ~start ->
      let pid = start () in
      let stopped = ref None in
      check "found a live worker to stall"
        (wait_for ~timeout:30.0 (fun () ->
             match worker_pids (r.leases dir) with
             | wpid :: _ ->
                 stopped := Some wpid;
                 kill_quietly ~signal:Sys.sigstop wpid;
                 true
             | [] -> false));
      let _, status = Unix.waitpid [] pid in
      check ("stalled " ^ c.noun ^ " still exits 0") (status = Unix.WEXITED 0);
      check "the missed heartbeat was logged"
        (contains (read_file inc) "heartbeat");
      Option.iter kill_quietly !stopped)

(* SIGKILL the supervisor itself once some work is durable (its workers
   are orphaned wherever they happen to be); rerunning the same command
   over the same directory must recover and converge to the identical
   result. *)
let supervisor_kill_resume sim c =
  soak sim c Resume ~title:"supervisor hard kill + resume (SIGKILL)"
    ~tag:"resume" (fun r ~dir ~out:_ ~inc:_ ~start ->
      let pid = start () in
      check c.committed_before_kill
        (wait_for ~timeout:60.0 (fun () -> r.committed dir));
      Unix.kill pid Sys.sigkill;
      (match Unix.waitpid [] pid with
      | _, Unix.WSIGNALED s ->
          check "supervisor died from the kill" (s = Sys.sigkill)
      | _, Unix.WEXITED 0 ->
          check "supervisor died from the kill (finished first)" true
      | _ -> check "supervisor died from the kill" false);
      let _, status = Unix.waitpid [] (start ()) in
      check "resumed run completes cleanly" (status = Unix.WEXITED 0))

let sim_path () =
  let rec find = function
    | "--sim" :: path :: _ -> Some path
    | _ :: rest -> find rest
    | [] -> None
  in
  find (Array.to_list Sys.argv)

let fleet_soak_requested () = Array.exists (( = ) "--fleet-soak") Sys.argv

let () =
  match sim_path () with
  | None ->
      prerr_endline
        "usage: chaos_check.exe --sim path/to/ncg_sim.exe [--fleet-soak]";
      exit 2
  | Some sim ->
      sigint_flushes_checkpoint sim;
      sigint_without_checkpoint sim;
      sigterm_exits_143 sim;
      sigkill_then_resume sim;
      out_of_range_counts_rejected sim;
      if fleet_soak_requested () then begin
        kill_storm sim fleet;
        stall_detection sim fleet;
        supervisor_kill_resume sim fleet
      end
      else
        print_endline
          "fleet soak skipped (pass --fleet-soak to run the kill storm)";
      if !failures > 0 then begin
        Printf.printf "chaos_check: %d check(s) FAILED\n" !failures;
        exit 1
      end
      else print_endline "chaos_check: all checks passed"
