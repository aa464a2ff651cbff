(* ncg_sim: run the paper's empirical studies at any scale.

     ncg_sim fig7  --trials 10000 --ns 10,20,...,100   (paper scale)
     ncg_sim fig13 --trials 50 --out fig13.dat         (gnuplot data)

   Subcommands map one-to-one to the evaluation figures; see DESIGN.md. *)

open Cmdliner
open Ncg_game
open Ncg_experiments

(* Comma-separated agent counts as a cmdliner converter, so a typo yields a
   usage error instead of an uncaught exception. *)
let ns_conv =
  let parse s =
    let parts = String.split_on_char ',' s in
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | part :: rest -> (
          match int_of_string_opt (String.trim part) with
          | Some n when n >= 2 -> go (n :: acc) rest
          | Some n ->
              Error
                (`Msg
                  (Printf.sprintf
                     "agent count %d is too small (need at least 2)" n))
          | None ->
              Error
                (`Msg
                  (Printf.sprintf
                     "invalid agent count %S (expected comma-separated \
                      integers, e.g. 10,20,30)"
                     (String.trim part))))
    in
    if s = "" then Error (`Msg "empty agent-count list") else go [] parts
  in
  let print fmt ns =
    Format.pp_print_string fmt
      (String.concat "," (List.map string_of_int ns))
  in
  Arg.conv ~docv:"NS" (parse, print)

(* An integer with a floor, so an out-of-range count is a usage error
   instead of a crash (or a table of nan) deep inside a run. *)
let int_at_least lo =
  let parse s =
    Result.bind (Arg.conv_parser Arg.int s) (fun v ->
        let msg = Printf.sprintf "%d is too small (need at least %d)" v lo in
        if v >= lo then Ok v else Error (`Msg msg))
  in
  Arg.conv ~docv:(Arg.conv_docv Arg.int) (parse, Arg.conv_printer Arg.int)

let ns_term =
  let doc = "Comma-separated agent counts, e.g. 10,20,30." in
  Arg.(value & opt ns_conv [ 10; 20; 30; 40; 50 ] & info [ "ns" ] ~doc)

let trials_term =
  let doc = "Trials per configuration (paper: 10000 for ASG, 5000 for GBG)." in
  Arg.(value & opt (int_at_least 1) 20 & info [ "trials" ] ~doc)

let seed_term =
  let doc = "Deterministic RNG seed." in
  Arg.(value & opt int 2013 & info [ "seed" ] ~doc)

let domains_term =
  let doc =
    "Worker domains for parallel trials; 0 picks a machine-appropriate \
     count automatically."
  in
  Arg.(value & opt int 0 & info [ "domains" ] ~doc)

let resolve_domains d =
  if d <= 0 then Ncg_parallel.Pool.recommended_domains () else d

let checkpoint_term =
  let doc =
    "Record every completed trial to $(docv) so an interrupted sweep can \
     be resumed with $(b,--resume)."
  in
  Arg.(
    value & opt (some string) None & info [ "checkpoint" ] ~docv:"FILE" ~doc)

let resume_term =
  let doc =
    "Resume from the $(b,--checkpoint) file: trials already recorded there \
     are not rerun.  The file must come from the same sweep configuration."
  in
  Arg.(value & flag & info [ "resume" ] ~doc)

(* The fingerprint ties a checkpoint file to one sweep configuration, so a
   stale file cannot silently contaminate a resumed reproduction. *)
let with_checkpoint ~cmd ~ns ~trials ~seed ~checkpoint ~resume k =
  match checkpoint with
  | None ->
      if resume then (
        Printf.eprintf "ncg_sim: --resume requires --checkpoint FILE\n";
        exit 2);
      k None
  | Some path -> (
      let fingerprint =
        Printf.sprintf "%s ns=%s trials=%d seed=%d" cmd
          (String.concat "," (List.map string_of_int ns))
          trials seed
      in
      match Checkpoint.open_ ~resume ~fingerprint path with
      | cp ->
          (* Surface what the loader recovered — a non-tail corrupt line
             means the storage damaged the file, which the user should
             know even though the affected trials simply rerun. *)
          if resume then
            Format.printf "checkpoint %s: %a@." path Checkpoint.pp_load_report
              (Checkpoint.load_report cp);
          Fun.protect
            ~finally:(fun () -> Checkpoint.close cp)
            (fun () -> k (Some cp))
      | exception Failure msg ->
          Printf.eprintf "ncg_sim: %s\n" msg;
          exit 2)

let sentinel_term =
  let doc =
    "Shadow-verify each dynamics step against the reference engine with \
     probability $(docv) (0 disables, 1 checks every step).  A detected \
     divergence degrades that trial to the reference engine and is \
     counted in the summary."
  in
  Arg.(value & opt float 0.0 & info [ "sentinel" ] ~docv:"RATE" ~doc)

let sentinel_of rate =
  if Float.is_nan rate || rate < 0.0 || rate > 1.0 then (
    Printf.eprintf "ncg_sim: --sentinel must be in [0,1]\n";
    exit 2);
  if rate = 0.0 then Ncg_core.Sentinel.Off
  else if rate >= 1.0 then Ncg_core.Sentinel.Every_step
  else Ncg_core.Sentinel.Sampled rate

let retries_term =
  let doc =
    "Retry crashed, timed-out or faulted trials up to $(docv) times on a \
     fresh sub-seed, doubling any per-trial time budget each attempt; a \
     trial failing every attempt is quarantined, not fatal."
  in
  Arg.(value & opt (int_at_least 0) 0 & info [ "max-retries" ] ~docv:"N" ~doc)

let incidents_term =
  let doc =
    "Append sentinel divergences, degraded trials and quarantined trials \
     to $(docv), one JSON object per line."
  in
  Arg.(
    value & opt (some string) None & info [ "incidents" ] ~docv:"FILE" ~doc)

let with_incidents path k =
  match path with
  | None -> k None
  | Some p ->
      let log = Incident_log.open_ p in
      Fun.protect
        ~finally:(fun () -> Incident_log.close log)
        (fun () -> k (Some log))

(* SIGINT/SIGTERM request a cooperative stop: the sweep finishes and
   records its in-flight batch, then raises [Runner.Interrupted], the
   checkpoint is closed on unwind, and we exit with the signal-accurate
   conventional code (128+2 = 130 for SIGINT, 128+15 = 143 for SIGTERM)
   after printing how to pick the sweep back up. *)
let install_signal_handlers () =
  let handle signal = Runner.request_stop ~signal () in
  List.iter
    (fun signal ->
      try Sys.set_signal signal (Sys.Signal_handle handle)
      with Invalid_argument _ | Sys_error _ -> ())
    [ Sys.sigint; Sys.sigterm ]

let interrupt_exit_code () =
  match Runner.stop_signal () with
  | Some s when s = Sys.sigterm -> 143
  | Some s when s = Sys.sigint -> 130
  | _ -> 130

let interruptible ~resume_hint k =
  install_signal_handlers ();
  match k () with
  | () -> ()
  | exception Runner.Interrupted ->
      flush stdout;
      (match resume_hint with
      | Some hint -> Printf.eprintf "ncg_sim: interrupted; %s\n" hint
      | None ->
          Printf.eprintf
            "ncg_sim: interrupted; no --checkpoint was given, so completed \
             trials are lost.\n");
      exit (interrupt_exit_code ())

let checkpoint_hint checkpoint =
  Option.map
    (fun path ->
      Printf.sprintf
        "completed trials are checkpointed.\n\
         Resume with: --checkpoint %s --resume" path)
    checkpoint

let out_term =
  let doc = "Also write gnuplot-ready data to $(docv)." in
  Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE" ~doc)

let value_term =
  let doc = "Which statistic to tabulate: avg or max." in
  let stat = Arg.enum [ ("avg", `Avg); ("max", `Max) ] in
  Arg.(value & opt stat `Avg & info [ "value" ] ~doc)

let verbose_term =
  let doc =
    "Also report the engine's process totals after the sweep, over every \
     trial (and worker domain) of this process: trials run, trial arenas \
     created, the cross-step distance cache's summed \
     kept/repaired/rebuilt/filled/evicted table counters, and its largest \
     per-trial peak residency (tables and bytes)."
  in
  Arg.(value & flag & info [ "verbose" ] ~doc)

let emit ?(verbose = false) out value curves =
  print_string (Series.to_table ~value curves);
  Printf.printf "max steps / n over all runs: %.2f\n" (Series.max_over curves);
  if verbose then begin
    let { Ncg_core.Engine.trials; arenas; cache = s; peak_tables; peak_bytes }
        =
      Ncg_core.Engine.totals ()
    in
    let touched = s.Distcache.kept + s.Distcache.repaired
      + s.Distcache.rebuilt
    in
    Printf.printf
      "distance cache: %d kept, %d repaired, %d rebuilt, %d filled, %d \
       evicted\n"
      s.Distcache.kept s.Distcache.repaired s.Distcache.rebuilt
      s.Distcache.fills s.Distcache.evicted;
    if peak_tables > 0 then
      Printf.printf
        "  peak residency: %d tables, %.2f MiB (largest single run)\n"
        peak_tables
        (float_of_int peak_bytes /. (1024.0 *. 1024.0));
    if touched > 0 then
      Printf.printf
        "  %.1f%% of patched tables kept without recomputation\n"
        (100.0 *. float_of_int s.Distcache.kept /. float_of_int touched);
    Printf.printf "trials: %d run, %d trial arena(s) created\n" trials arenas
  end;
  match out with
  | None -> ()
  | Some path ->
      Series.write_gnuplot path ~value curves;
      Printf.printf "wrote %s\n" path

(* One command per figure of the table; [what] completes its doc line. *)
let figure_cmd name what =
  let fig = Figure.find name in
  let run ns trials seed domains out value checkpoint resume sentinel
      max_retries incidents verbose =
    interruptible ~resume_hint:(checkpoint_hint checkpoint) (fun () ->
        with_checkpoint ~cmd:name ~ns ~trials ~seed ~checkpoint ~resume
          (fun cp ->
            with_incidents incidents (fun log ->
                emit ~verbose out value
                  (Figure.sweep ~domains:(resolve_domains domains) ~seed
                     ?checkpoint:cp ?incidents:log
                     ~sentinel:(sentinel_of sentinel) ~max_retries ~ns ~trials
                     fig))))
  in
  Cmd.v
    (Cmd.info name ~doc:(Printf.sprintf "Reproduce %s." what))
    Term.(
      const run $ ns_term $ trials_term $ seed_term $ domains_term $ out_term
      $ value_term $ checkpoint_term $ resume_term $ sentinel_term
      $ retries_term $ incidents_term $ verbose_term)

(* ------------------------------------------------------------------ *)
(* Fleet: multi-process supervised sweep                               *)
(* ------------------------------------------------------------------ *)

let fleet_cmd_term =
  let doc =
    Printf.sprintf "Sweep point family to run: %s."
      (String.concat ", " Fleet.point_names)
  in
  Arg.(
    required
    & opt (some (enum (List.map (fun c -> (c, c)) Fleet.point_names))) None
    & info [ "cmd" ] ~docv:"CMD" ~doc)

let fleet_n_term =
  let doc = "Agent count of the sweep point." in
  Arg.(value & opt (int_at_least 2) 24 & info [ "n" ] ~doc)

let fleet_dir_term =
  let doc =
    "Fleet state directory (leases and checkpoint shards); survives the \
     supervisor, so rerunning the same command resumes the sweep."
  in
  Arg.(value & opt string "ncg-fleet" & info [ "dir" ] ~docv:"DIR" ~doc)

let workers_term =
  let doc =
    "Concurrent worker subprocesses; 0 picks a machine-appropriate count."
  in
  Arg.(value & opt int 0 & info [ "workers" ] ~doc)

let shards_term =
  let doc =
    "Trial shards (lease granularity); 0 means 4 per worker.  More shards \
     mean finer-grained reassignment after a worker death."
  in
  Arg.(value & opt int 0 & info [ "shards" ] ~doc)

let max_respawns_term =
  let doc =
    "Respawns allowed per shard beyond its first worker; a shard failing \
     every respawn is quarantined and its unfinished trials reported \
     missing."
  in
  Arg.(value & opt int 3 & info [ "max-respawns" ] ~docv:"N" ~doc)

let heartbeat_timeout_term =
  let doc =
    "Seconds without a worker heartbeat before the supervisor declares it \
     dead, kills it, and reassigns its shard."
  in
  Arg.(value & opt float 10.0 & info [ "heartbeat-timeout" ] ~docv:"SECS" ~doc)

let heartbeat_interval_term =
  let doc = "Worker heartbeat period in seconds (internal)." in
  Arg.(
    value & opt float 0.5 & info [ "heartbeat-interval" ] ~docv:"SECS" ~doc)

let shard_term =
  let doc = "Shard index this worker owns (internal)." in
  Arg.(required & opt (some int) None & info [ "shard" ] ~docv:"K" ~doc)

let fleet_point cmd n =
  match Fleet.point_spec cmd ~n with
  | Some point -> point
  | None ->
      Printf.eprintf "ncg_sim: unknown fleet point %s (known: %s)\n" cmd
        (String.concat ", " Fleet.point_names);
      exit 2

let fleet_cmd =
  let run cmd n trials seed workers shards dir max_respawns heartbeat_timeout
      heartbeat_interval incidents =
    let point = fleet_point cmd n in
    let fingerprint = Fleet.fingerprint ~cmd ~n ~trials ~seed in
    let workers =
      if workers <= 0 then Ncg_parallel.Pool.recommended_domains ()
      else workers
    in
    let shards = if shards <= 0 then 4 * workers else shards in
    let spawn ~shard =
      let args =
        [
          "fleet-worker"; "--cmd"; cmd; "-n"; string_of_int n; "--trials";
          string_of_int trials; "--seed"; string_of_int seed; "--shard";
          string_of_int shard; "--dir"; dir; "--heartbeat-interval";
          Printf.sprintf "%g" heartbeat_interval;
        ]
        @ (match incidents with
          | Some path -> [ "--incidents"; path ]
          | None -> [])
      in
      Unix.create_process Sys.executable_name
        (Array.of_list (Sys.executable_name :: args))
        Unix.stdin Unix.stdout Unix.stderr
    in
    with_incidents incidents (fun log ->
        interruptible
          ~resume_hint:
            (Some
               (Printf.sprintf
                  "fleet state is preserved in %s.\n\
                   Resume by rerunning the same fleet command." dir))
          (fun () ->
            Printf.printf "fleet %s n=%d trials=%d seed=%d: workers=%d \
                           shards=%d\n%!" cmd n trials seed workers shards;
            let cfg =
              {
                Fleet.dir;
                fingerprint;
                key = point.Fleet.key;
                seed;
                trials;
                shards;
                workers;
                heartbeat_timeout;
                poll_interval = 0.05;
                max_respawns;
                spawn;
                incidents = log;
              }
            in
            let r = Fleet.supervise cfg in
            Printf.printf "summary: %s\n"
              (Format.asprintf "%a" Ncg_core.Stats.pp r.Fleet.summary);
            Printf.printf
              "fleet: respawns=%d quarantined=%d missing=%d \
               cross-shard-duplicates=%d\n"
              r.Fleet.respawns
              (List.length r.Fleet.quarantined)
              (List.length r.Fleet.missing)
              r.Fleet.cross_duplicates;
            List.iter
              (fun (s, report) ->
                if report.Checkpoint.corrupted <> [] then
                  Format.printf "shard %04d: %a@." s
                    Checkpoint.pp_load_report report)
              r.Fleet.shard_reports;
            if r.Fleet.missing <> [] then begin
              Printf.eprintf
                "ncg_sim: %d trial(s) missing after quarantine; raise \
                 --max-respawns and rerun to fill them in.\n"
                (List.length r.Fleet.missing);
              exit 1
            end))
  in
  let doc =
    "Run one sweep point as a supervised fleet of worker subprocesses with \
     durable leases, heartbeats, and crash-reassignment; the merged result \
     is bit-identical to a single-process run of the same seed."
  in
  Cmd.v (Cmd.info "fleet" ~doc)
    Term.(
      const run $ fleet_cmd_term $ fleet_n_term $ trials_term $ seed_term
      $ workers_term $ shards_term $ fleet_dir_term $ max_respawns_term
      $ heartbeat_timeout_term $ heartbeat_interval_term $ incidents_term)

let fleet_worker_cmd =
  let run cmd n trials seed shard dir heartbeat_interval incidents =
    let point = fleet_point cmd n in
    let fingerprint = Fleet.fingerprint ~cmd ~n ~trials ~seed in
    with_incidents incidents (fun log ->
        match
          Fleet.worker ~dir ~fingerprint ~shard ~key:point.Fleet.key ~seed
            ~trials ~heartbeat_interval ?incidents:log point.Fleet.spec
        with
        | Ok () -> ()
        | Error msg ->
            Printf.eprintf "ncg_sim fleet-worker[shard %d]: %s\n" shard msg;
            exit 3)
  in
  let doc =
    "INTERNAL: run one fleet shard (spawned by $(b,ncg_sim fleet))."
  in
  Cmd.v (Cmd.info "fleet-worker" ~doc)
    Term.(
      const run $ fleet_cmd_term $ fleet_n_term $ trials_term $ seed_term
      $ shard_term $ fleet_dir_term $ heartbeat_interval_term
      $ incidents_term)

(* ------------------------------------------------------------------ *)
(* Cartography: distributed state-space exploration                    *)
(* ------------------------------------------------------------------ *)

module Carto = Ncg_search.Cartography

let carto_point_term =
  let doc =
    Printf.sprintf
      "Exploration point: %s, or any catalog instance name (explored under \
       improving moves)."
      (String.concat ", " Carto.point_names)
  in
  Arg.(
    required & opt (some string) None & info [ "point" ] ~docv:"POINT" ~doc)

let carto_dir_term =
  let doc =
    "Run directory (meta, ledger partitions, frontier files, per-wave chunk \
     leases and arc files); survives any crash, so rerunning the same \
     command resumes the exploration."
  in
  Arg.(value & opt string "ncg-carto" & info [ "dir" ] ~docv:"DIR" ~doc)

let carto_states_term =
  let doc = "Exploration state budget." in
  Arg.(value & opt int 200_000 & info [ "max-states" ] ~doc)

let carto_chunk_term =
  let doc = "Frontier states per chunk lease." in
  Arg.(value & opt (int_at_least 1) 64 & info [ "chunk-size" ] ~doc)

let carto_iso_term =
  let doc =
    "Dedupe states up to isomorphism (gadget hunting) instead of exactly; \
     the region is then a quotient and no longer comparable to \
     single-process exploration."
  in
  Arg.(value & flag & info [ "iso" ] ~doc)

let carto_throttle_term =
  let doc =
    "Sleep $(docv) milliseconds per expanded state (widens the kill window \
     for chaos drills)."
  in
  Arg.(value & opt int 0 & info [ "throttle-ms" ] ~docv:"MS" ~doc)

let carto_wave_term =
  let doc = "Wave this worker expands (internal)." in
  Arg.(required & opt (some int) None & info [ "wave" ] ~docv:"K" ~doc)

let carto_chunk_idx_term =
  let doc = "Chunk index this worker owns (internal)." in
  Arg.(required & opt (some int) None & info [ "chunk" ] ~docv:"C" ~doc)

let carto_json_term =
  let doc = "Write the machine-readable run report to $(docv)." in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

let carto_self_check_term =
  let doc =
    "After the distributed run, re-explore in-process with \
     Statespace.explore and fail unless explored count, stable set and \
     cycle verdict are identical."
  in
  Arg.(value & flag & info [ "self-check" ] ~doc)

let carto_chaos_kill_term =
  let doc =
    "Chaos drill: SIGKILL the first spawned worker immediately, forcing one \
     death + reassignment (requires --workers >= 1)."
  in
  Arg.(value & flag & info [ "chaos-kill-first" ] ~doc)

let carto_spec ~name ~max_states ~iso =
  match Carto.point_spec ~max_states name with
  | None ->
      Printf.eprintf "ncg_sim: unknown exploration point %s (known: %s)\n"
        name
        (String.concat ", "
           (Carto.point_names @ Ncg_instances.Catalog.names ()));
      exit 2
  | Some spec -> if iso then { spec with Carto.key_mode = Carto.Iso } else spec

let carto_cmd =
  let run name dir workers chunk_size max_states iso throttle_ms
      max_respawns heartbeat_timeout heartbeat_interval self_check json
      chaos_kill_first incidents =
    let spec = carto_spec ~name ~max_states ~iso in
    if self_check && iso then begin
      Printf.eprintf "ncg_sim: --self-check needs exact keying, not --iso\n";
      exit 2
    end;
    let first_killed = ref (not chaos_kill_first) in
    let spawn ~wave ~chunk =
      let args =
        [
          "carto-worker"; "--point"; name; "--dir"; dir; "--wave";
          string_of_int wave; "--chunk"; string_of_int chunk; "--max-states";
          string_of_int max_states; "--throttle-ms"; string_of_int throttle_ms;
          "--heartbeat-interval"; Printf.sprintf "%g" heartbeat_interval;
        ]
        @ (if iso then [ "--iso" ] else [])
      in
      let pid =
        Unix.create_process Sys.executable_name
          (Array.of_list (Sys.executable_name :: args))
          Unix.stdin Unix.stdout Unix.stderr
      in
      if not !first_killed then begin
        (* the CI smoke's injected fault: the very first worker dies
           before doing any work, and the run must not notice *)
        first_killed := true;
        Unix.kill pid Sys.sigkill
      end;
      pid
    in
    with_incidents incidents (fun log ->
        interruptible
          ~resume_hint:
            (Some
               (Printf.sprintf
                  "exploration state is preserved in %s.\n\
                   Resume by rerunning the same carto command." dir))
          (fun () ->
            let cfg =
              {
                (Carto.default_config ~dir) with
                Carto.chunk_size;
                workers;
                heartbeat_interval;
                heartbeat_timeout;
                max_respawns;
                throttle_ms;
                spawn = (if workers > 0 then Some spawn else None);
                incidents = log;
              }
            in
            Printf.printf "carto %s: %s (%s)\n%!" name
              (Carto.fingerprint spec)
              (if workers > 0 then Printf.sprintf "%d workers" workers
               else "in-process");
            let r =
              try Carto.run cfg spec
              with Failure msg ->
                Printf.eprintf "ncg_sim: %s\n" msg;
                exit 2
            in
            Printf.printf
              "explored=%d waves=%d arcs=%d stable=%d cycle=%b largest-scc=%d \
               truncated=%b respawns=%d resumed=%b rolled-back=%d\n"
              r.Carto.explored r.Carto.waves r.Carto.arcs
              (List.length r.Carto.stable) r.Carto.has_cycle
              r.Carto.largest_scc r.Carto.truncated r.Carto.respawns
              r.Carto.resumed r.Carto.rolled_back;
            Printf.printf "region: %s\n" r.Carto.region_fingerprint;
            (match json with
            | None -> ()
            | Some path ->
                let oc = open_out path in
                output_string oc (Carto.report_json r);
                output_char oc '\n';
                close_out oc;
                Printf.printf "wrote %s\n" path);
            if self_check then begin
              if r.Carto.truncated then begin
                Printf.eprintf
                  "ncg_sim: self-check needs an untruncated region; raise \
                   --max-states\n";
                exit 1
              end;
              let e =
                Ncg_search.Statespace.explore ~max_states ~rule:spec.Carto.rule
                  spec.Carto.model spec.Carto.initial
              in
              let solo_stable =
                List.sort_uniq compare e.Ncg_search.Statespace.stable
              in
              let carto_stable = List.map fst r.Carto.stable in
              let solo_cycle =
                match
                  Ncg_search.Statespace.find_cycle ~max_states
                    ~rule:spec.Carto.rule spec.Carto.model spec.Carto.initial
                with
                | `Cycle _ -> true
                | `Acyclic | `Truncated -> false
              in
              let ok = ref true in
              if e.Ncg_search.Statespace.explored <> r.Carto.explored then begin
                ok := false;
                Printf.eprintf
                  "self-check: explored %d (distributed) vs %d (solo)\n"
                  r.Carto.explored e.Ncg_search.Statespace.explored
              end;
              if solo_stable <> carto_stable then begin
                ok := false;
                Printf.eprintf "self-check: stable sets differ\n"
              end;
              if solo_cycle <> r.Carto.has_cycle then begin
                ok := false;
                Printf.eprintf "self-check: cycle verdict %b vs %b\n"
                  r.Carto.has_cycle solo_cycle
              end;
              if !ok then Printf.printf "self-check: ok\n"
              else exit 1
            end))
  in
  let doc =
    "Explore an instance's improving-move/best-response state space as a \
     crash-tolerant distributed BFS over a durable frontier, an \
     exactly-once dedupe ledger and chunk leases; reports sinks, SCCs \
     (best-response cycles) and the region fingerprint."
  in
  Cmd.v (Cmd.info "carto" ~doc)
    Term.(
      const run $ carto_point_term $ carto_dir_term $ workers_term
      $ carto_chunk_term $ carto_states_term $ carto_iso_term
      $ carto_throttle_term $ max_respawns_term $ heartbeat_timeout_term
      $ heartbeat_interval_term $ carto_self_check_term $ carto_json_term
      $ carto_chaos_kill_term $ incidents_term)

let carto_worker_cmd =
  let run name dir wave chunk max_states iso throttle_ms heartbeat_interval =
    let spec = carto_spec ~name ~max_states ~iso in
    match
      Carto.worker ~dir ~wave ~chunk ~heartbeat_interval ~throttle_ms spec
    with
    | Ok () -> ()
    | Error msg ->
        Printf.eprintf "ncg_sim carto-worker[wave %d chunk %d]: %s\n" wave
          chunk msg;
        exit 3
  in
  let doc =
    "INTERNAL: expand one frontier chunk (spawned by $(b,ncg_sim carto))."
  in
  Cmd.v (Cmd.info "carto-worker" ~doc)
    Term.(
      const run $ carto_point_term $ carto_dir_term $ carto_wave_term
      $ carto_chunk_idx_term $ carto_states_term $ carto_iso_term
      $ carto_throttle_term $ heartbeat_interval_term)

(* Empirical price of anarchy of the converged networks (Sec. 1.3's
   motivation: selfish play should end near the social optimum). *)
let poa_cmd =
  let run ns trials seed =
    Printf.printf "%6s %14s
" "n" "worst ratio";
    List.iter
      (fun n ->
        let model =
          Model.make
            ~alpha:(Ncg_rational.Q.make n 4)
            Model.Gbg Model.Sum n
        in
        let worst =
          Ncg_core.Efficiency.worst_stable_ratio ~trials ~seed model
            (fun rng -> Ncg_graph.Gen.random_m_edges rng n (2 * n))
        in
        Printf.printf "%6d %14.3f
" n worst)
      ns
  in
  let doc =
    "Empirical price of anarchy: worst social-cost ratio of converged      SUM-GBG networks vs the social optimum."
  in
  Cmd.v (Cmd.info "poa" ~doc)
    Term.(const run $ ns_term $ trials_term $ seed_term)

(* Exhaustive classification of a named gadget instance. *)
let classify_cmd =
  let name_term =
    let doc = "Instance name (see `ncg_verify` for the list)." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"NAME" ~doc)
  in
  let states_term =
    let doc = "State budget for the exhaustive exploration." in
    Arg.(value & opt int 50_000 & info [ "max-states" ] ~doc)
  in
  let run name max_states =
    match Ncg_instances.Catalog.find name with
    | None ->
        Printf.eprintf "unknown instance %s; known: %s
" name
          (String.concat ", " (Ncg_instances.Catalog.names ()));
        exit 2
    | Some inst ->
        let r =
          Ncg_search.Classify.classify ~max_states
            inst.Ncg_instances.Instance.model
            inst.Ncg_instances.Instance.initial
        in
        Format.printf "%s: %a@." name Ncg_search.Classify.pp r
  in
  let doc =
    "Classify a gadget instance (finite improvement / BR-weakly-acyclic /      weakly-acyclic) by exhaustive state-space exploration."
  in
  Cmd.v (Cmd.info "classify" ~doc)
    Term.(const run $ name_term $ states_term)

let () =
  let info =
    Cmd.info "ncg_sim" ~version:"1.0"
      ~doc:"Empirical studies of network creation game dynamics"
  in
  let group =
    Cmd.group info
      [
        figure_cmd "fig7" "Figure 7 (SUM-ASG): bounded-budget ASG convergence";
        figure_cmd "fig8" "Figure 8 (MAX-ASG): bounded-budget ASG convergence";
        figure_cmd "fig11" "Figure 11 (SUM-GBG): GBG convergence sweep";
        figure_cmd "fig12"
          "Figure 12 (SUM-GBG topologies): GBG starting-topology comparison";
        figure_cmd "fig13" "Figure 13 (MAX-GBG): GBG convergence sweep";
        figure_cmd "fig14"
          "Figure 14 (MAX-GBG topologies): GBG starting-topology comparison";
        fleet_cmd;
        fleet_worker_cmd;
        carto_cmd;
        carto_worker_cmd;
        poa_cmd;
        classify_cmd;
      ]
  in
  exit (Cmd.eval group)
