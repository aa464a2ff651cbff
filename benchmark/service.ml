(* The service workload: a fresh simulation daemon with two worker
   processes, driven by a closed loop of two client connections from this
   process.  Each job is a SUM-GBG simulation (n = 24, alpha = 6, four
   trials) on a random host graph; a fifth of the jobs resubmit an earlier
   host as a relabelled isomorph with the same parameters, so the daemon's
   canonical-form result cache should answer them. *)

open Ncg_graph
open Ncg_game
open Ncg_core
open Report
module Json = Ncg_service.Json
module Proto = Ncg_service.Proto
module Sysx = Ncg_experiments.Sysx

let host_n = 24
let trials = 4
let clients = 2
let workers = 2

(* The rate the service ran at when the benchmark was defined: a run of
   [--seconds s] submits [s * jobs_per_s] jobs. *)
let jobs_per_s = 80.0

(* Scratch for sockets and lease files, under the build directory of the
   working directory (the repository root), where nothing is committed;
   relative, so the socket path stays within the 108-byte limit. *)
let run_root = Filename.concat "_build" ".bench_run"

(* The daemon under test: the [ncg_serve] dune builds beside this
   executable, in _build/default/bin. *)
let serve_exe () =
  let build = Filename.dirname (Filename.dirname Sys.executable_name) in
  let exe = Filename.concat (Filename.concat build "bin") "ncg_serve.exe" in
  if not (Sys.file_exists exe) then
    failwith (exe ^ " not found: build ./bin/ncg_serve.exe first");
  exe

let submit_fields ~seed ~host ~trials =
  [
    ("game", Json.Str "gbg");
    ("dist", Json.Str "sum");
    ("alpha", Json.Str "6");
    ("n", Json.Int host_n);
    ("host", host);
    ("seed", Json.Int seed);
    ("trials", Json.Int trials);
    ("edge_prob", Json.Float 0.15);
  ]

let frame ~tag fields =
  Json.to_string (Json.Obj (("op", Json.Str "submit") :: ("tag", Json.Int tag) :: fields))

(* Every fifth job resubmits the host of the job 21 places earlier — recent
   enough to still be in the daemon's 512-entry result cache — and every
   other job gets a fresh host.  [keys.(j)] numbers job [j]'s host. *)
let host_keys count =
  let keys = Array.make count 0 and fresh = ref 0 in
  for j = 0 to count - 1 do
    if j mod 5 = 4 && j >= 21 then keys.(j) <- keys.(j - 21)
    else begin
      keys.(j) <- !fresh;
      incr fresh
    end
  done;
  (keys, !fresh)

(* Job [j] runs on its host under a fresh random relabelling; its seed is
   keyed to the host, so a resubmitted host carries the same parameters.
   Built before any client thread starts. *)
let make_jobs ~seed ~count =
  let keys, distinct = host_keys count in
  let hosts =
    Array.init distinct (fun k ->
        let rng = Random.State.make [| seed; k; 31337 |] in
        List.map
          (fun (u, v, _) -> (u, v))
          (Graph.edges (Gen.random_connected rng host_n 0.25)))
  in
  Array.init count (fun j ->
      let key = keys.(j) in
      let rng = Random.State.make [| seed; j; 7919 |] in
      let perm = Array.init host_n Fun.id in
      for i = host_n - 1 downto 1 do
        let r = Random.State.int rng (i + 1) in
        let t = perm.(i) in
        perm.(i) <- perm.(r);
        perm.(r) <- t
      done;
      let host =
        Json.List
          (List.map
             (fun (u, v) -> Json.List [ Json.Int perm.(u); Json.Int perm.(v) ])
             hosts.(key))
      in
      (key, frame ~tag:j (submit_fields ~seed:(seed + key) ~host ~trials)))

(* ------------------------------------------------------------------ *)
(* Wire                                                                *)
(* ------------------------------------------------------------------ *)

type conn = { fd : Unix.file_descr; buf : Buffer.t; chunk : Bytes.t }

let send c line = Sysx.write_all c.fd (Bytes.of_string (line ^ "\n"))

(* The next reply line, or [None] when the daemon closed the connection
   or stayed silent past the receive timeout. *)
let rec receive c =
  let s = Buffer.contents c.buf in
  match String.index_opt s '\n' with
  | Some i ->
      Buffer.clear c.buf;
      Buffer.add_substring c.buf s (i + 1) (String.length s - i - 1);
      Some (Json.parse (String.sub s 0 i))
  | None -> (
      match Sysx.read c.fd c.chunk 0 (Bytes.length c.chunk) with
      | 0 -> None
      | k ->
          Buffer.add_subbytes c.buf c.chunk 0 k;
          receive c
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ECONNRESET), _, _)
        ->
          None)

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let str j k = Option.bind (Json.member k j) Json.to_str

(* ------------------------------------------------------------------ *)
(* Daemon lifecycle                                                    *)
(* ------------------------------------------------------------------ *)

type daemon = { pid : int; dir : string; socket : string }

let rec remove path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> remove (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* A fresh [ncg_serve] with its default configuration and two workers. *)
let spawn ~index =
  let exe = serve_exe () in
  if not (Sys.file_exists run_root) then Unix.mkdir run_root 0o755;
  let dir = Filename.concat run_root (Printf.sprintf "%d-%d" (Unix.getpid ()) index) in
  remove dir;
  Unix.mkdir dir 0o755;
  let socket = Filename.concat dir "d.sock" in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Unix.create_process exe
      [|
        exe;
        "--socket";
        socket;
        "--lease-dir";
        Filename.concat dir "leases";
        "--workers";
        string_of_int workers;
      |]
      devnull Unix.stderr Unix.stderr
  in
  Unix.close devnull;
  { pid; dir; socket }

let connect d =
  let deadline = now () +. 30.0 in
  let rec go () =
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX d.socket) with
    | () ->
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO 60.0;
        { fd; buf = Buffer.create 4096; chunk = Bytes.create 65536 }
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when now () < deadline && fst (Unix.waitpid [ Unix.WNOHANG ] d.pid) = 0 ->
        Unix.close fd;
        Unix.sleepf 0.002;
        go ()
  in
  go ()

let health c =
  send c "{\"op\":\"stats\"}";
  let rec wait () =
    match receive c with
    | Some j when str j "type" = Some "health" -> j
    | Some _ -> wait ()
    | None -> failwith "daemon closed the connection during a stats request"
  in
  wait ()

let counter h name =
  Option.value ~default:0
    (Option.bind
       (Option.bind (Json.member "metrics" h) (Json.member "counters"))
       (fun cs -> Option.bind (Json.member name cs) Json.to_int))

let worker_pids h =
  match Option.bind (Json.member "workers" h) Json.to_list with
  | None -> []
  | Some ws -> List.filter_map (fun w -> Option.bind (Json.member "pid" w) Json.to_int) ws

let workers_warm h =
  match Option.bind (Json.member "workers" h) Json.to_list with
  | None -> false
  | Some ws -> List.for_all (fun w -> Json.member "batch" w <> None) ws

(* Drain, then wait for the daemon, which stops and reaps its workers. *)
let stop d =
  (try
     let c = connect d in
     send c "{\"op\":\"drain\"}";
     ignore (receive c);
     close c
   with _ -> ());
  let deadline = now () +. 20.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when now () < deadline ->
        Unix.sleepf 0.01;
        wait ()
    | 0, _ ->
        Sysx.kill d.pid Sys.sigkill;
        Sysx.reap d.pid
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ();
  remove d.dir;
  try Unix.rmdir run_root with Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Closed-loop clients                                                 *)
(* ------------------------------------------------------------------ *)

type record = {
  mutable submitted : float;  (* first send; shed retries stay inside *)
  mutable acked : float;
  mutable finished : float;
  mutable status : string;  (* terminal status, "lost" until one arrives *)
  mutable cached : bool;
  mutable summary : Json.t;
  mutable terminals : int;
}

let fresh_record () =
  {
    submitted = 0.0;
    acked = 0.0;
    finished = 0.0;
    status = "lost";
    cached = false;
    summary = Json.Null;
    terminals = 0;
  }

let is_terminal j =
  match (str j "type", str j "status") with
  | Some "error", _ -> true
  | Some "outcome", Some ("completed" | "deadline_exceeded" | "faulted") -> true
  | _ -> false

(* Submit [line] as job [tag] and wait for its terminal outcome; false
   when the connection died first. *)
let run_job c records tag line =
  let r = records.(tag) in
  r.submitted <- now ();
  send c line;
  let rec wait () =
    match receive c with
    | None -> false
    | Some j -> (
        match Option.bind (Json.member "tag" j) Json.to_int with
        | Some t when t <> tag ->
            if is_terminal j && t >= 0 && t < Array.length records then
              records.(t).terminals <- records.(t).terminals + 1;
            wait ()
        | None -> wait ()
        | Some _ -> (
            match (str j "type", str j "status") with
            | Some "ack", _ ->
                r.acked <- now ();
                wait ()
            | Some "outcome", Some "shed" ->
                let hint =
                  Option.value ~default:0.1
                    (Option.bind (Json.member "retry_after" j) Json.to_float_opt)
                in
                Unix.sleepf (Float.min 1.0 hint);
                send c line;
                wait ()
            | (Some "outcome", Some status) when is_terminal j ->
                r.finished <- now ();
                r.status <- status;
                r.cached <- Json.member "cached" j = Some (Json.Bool true);
                r.summary <- Option.value ~default:Json.Null (Json.member "summary" j);
                r.terminals <- r.terminals + 1;
                true
            | Some "error", _ ->
                r.finished <- now ();
                r.status <- "error";
                r.terminals <- r.terminals + 1;
                true
            | _ -> wait ()))
  in
  wait ()

(* [clients] connections, each with one job in flight, taking the jobs in
   order from a shared counter until none are left. *)
let drive d lines records =
  let next = Atomic.make 0 in
  let client () =
    let c = connect d in
    let rec loop () =
      let j = Atomic.fetch_and_add next 1 in
      if j < Array.length lines && run_job c records j lines.(j) then loop ()
    in
    (try loop () with Unix.Unix_error _ | Sys_error _ | Json.Parse_error _ -> ());
    close c
  in
  List.iter Thread.join (List.init clients (fun _ -> Thread.create client ()))

(* Set-up: spawn until both workers have answered a job.  Each warm-up
   round writes one small job per worker in a single write, so the daemon
   admits them together and hands them to different workers. *)
let start ~seed ~index =
  let t0 = now () in
  let d = spawn ~index in
  let warm c round =
    let lines =
      List.init workers (fun w ->
          frame ~tag:w
            (submit_fields
               ~seed:(seed + 1_000_000 + (round * workers) + w)
               ~host:(Json.Str "complete") ~trials:1))
    in
    send c (String.concat "\n" lines);
    let rec wait pending =
      if pending > 0 then
        match receive c with
        | None -> failwith "daemon closed the connection during warm-up"
        | Some j -> wait (if is_terminal j then pending - 1 else pending)
    in
    wait workers;
    workers_warm (health c)
  in
  (match
     let c = connect d in
     let rec go round =
       if round >= 20 then failwith "daemon workers never became ready";
       if not (warm c round) then go (round + 1)
     in
     go 0;
     close c
   with
  | () -> ()
  | exception e ->
      stop d;
      raise e);
  (d, now () -. t0)

(* ------------------------------------------------------------------ *)
(* In-process replay                                                   *)
(* ------------------------------------------------------------------ *)

(* The daemon's admission canonicalisation: the host the workers run on. *)
let canonical_host (job : Proto.job) =
  match job.Proto.host with
  | Proto.Complete _ -> None
  | Proto.Edges (n, pairs) -> (
      let g = Graph.of_unowned_edges n pairs in
      match Canonical.normal_form ~respect_ownership:false ~budget:200_000 g with
      | h -> Some (Graph.of_unowned_edges n (List.map (fun (u, v, _) -> (u, v)) (Graph.edges h)))
      | exception Canonical.Budget_exceeded -> Some g)

(* A worker's engine configuration and trial inputs for [job]. *)
let trial_plan (job : Proto.job) host_graph =
  let n = Proto.host_n job.Proto.host in
  let host =
    match host_graph with None -> Host.complete n | Some g -> Host.of_graph g
  in
  let model = Model.make ~alpha:job.Proto.alpha ~host job.Proto.game job.Proto.dist n in
  let cfg =
    Engine.config ~policy:job.Proto.policy ~tie_break:job.Proto.tie_break
      ~detect_cycles:true ~record_history:false ?max_steps:job.Proto.max_steps
      model
  in
  let input trial =
    let rng = Random.State.make [| job.Proto.seed; trial; n |] in
    let g =
      match host_graph with
      | None -> Gen.random_connected rng n job.Proto.edge_prob
      | Some h -> Gen.random_host_network rng h job.Proto.edge_prob
    in
    (rng, g)
  in
  (cfg, input)

let summary results =
  Json.to_string
    (Proto.summary_to_json
       (Stats.summarize_outcomes (List.map Stats.outcome_of_result results)))

let parse_job line =
  match Proto.job_of_json (Json.parse line) with
  | Ok job -> job
  | Error m -> failwith ("benchmark job rejected: " ^ m)

let recompute line =
  let job = parse_job line in
  let cfg, input = trial_plan job (canonical_host job) in
  summary
    (List.init job.Proto.trials (fun t ->
         let rng, g = input t in
         Engine.run ~rng cfg g))

(* ------------------------------------------------------------------ *)
(* The workload                                                        *)
(* ------------------------------------------------------------------ *)

let run ~seed ~seconds ~trace ~spans =
  let count = max 10 (int_of_float (Float.round (jobs_per_s *. seconds))) in
  let jobs = make_jobs ~seed ~count in
  let lines = Array.map snd jobs in
  (* nine daemons, one after another: set-up is their median start time,
     and the last serves the measured jobs *)
  let starts = 9 in
  let setups =
    Array.init starts (fun index ->
        let d, t = start ~seed ~index in
        if index < starts - 1 then stop d;
        (d, t))
  in
  let d = fst setups.(starts - 1) in
  let setup_s = median (Array.map snd setups) in
  let records = Array.init count (fun _ -> fresh_record ()) in
  let before, after, rss =
    Fun.protect
      ~finally:(fun () -> stop d)
      (fun () ->
        let c = connect d in
        let before = health c in
        drive d lines records;
        let after = health c in
        close c;
        let rss =
          List.fold_left
            (fun acc pid -> acc +. peak_rss_mib (Some pid))
            (peak_rss_mib (Some d.pid))
            (worker_pids after)
        in
        (before, after, rss))
  in
  let completed = Array.to_list records |> List.filter (fun r -> r.status = "completed") in
  let duplicated =
    Array.fold_left (fun acc r -> acc + max 0 (r.terminals - 1)) 0 records
  in
  let failed = count - List.length completed + duplicated in
  (* isomorphic resubmissions must get the summary of the first submission *)
  let first_summary = Hashtbl.create count in
  let consistent =
    Array.for_all2
      (fun (key, _) r ->
        let s = Json.to_string r.summary in
        match Hashtbl.find_opt first_summary key with
        | Some s0 -> s0 = s
        | None ->
            Hashtbl.replace first_summary key s;
            true)
      jobs records
  in
  let latencies = Array.map (fun r -> r.finished -. r.submitted) records in
  if not trace then begin
    (* Completion rate over ten windows of equal job counts, in completion
       order; the run reports the median window, which a burst of load on a
       shared machine moves far less than the mean over the whole run. *)
    let rate =
      let finished =
        Array.of_list (List.sort compare (List.map (fun r -> r.finished) completed))
      in
      let windows = 10 in
      let per = Array.length finished / windows in
      let start = Array.fold_left (fun a r -> Float.min a r.submitted) infinity records in
      let edge k = if k = 0 then start else finished.((k * per) - 1) in
      if per = 0 then 0.0
      else
        median
          (Array.init windows (fun k ->
               float_of_int per /. (edge (k + 1) -. edge k)))
    in
    (* every 25th job recomputed in process must match the daemon's reply *)
    let sampled = List.filter (fun j -> j mod 25 = 0) (List.init count Fun.id) in
    let recomputed =
      List.for_all
        (fun j -> recompute lines.(j) = Json.to_string records.(j).summary)
        sampled
    in
    {
      correct = failed = 0 && consistent && recomputed;
      attempted = count;
      failed;
      metrics =
        [
          metric "ops_per_s" "1/s" rate;
          metric "setup_s" "s" setup_s;
          metric "peak_rss_mb" "MiB" rss;
        ];
    }
  end
  else begin
    (* Replay every tenth job in process (each a fresh host): parse,
       canonicalise, then every trial through the traced replica and
       through [Engine.run], which must agree with each other and with the
       daemon's summary. *)
    let sampled = List.filter (fun j -> j mod 10 = 0) (List.init count Fun.id) in
    let tr = Trace.create () and counters = Replica.counters () in
    let pool = Replica.create_pool host_n in
    let gen = ref [] and normal_form = ref [] and sim = ref [] in
    let replica_time = ref 0.0 and engine_time = ref 0.0 in
    let agree =
      List.for_all
        (fun j ->
          let job = parse_job lines.(j) in
          let host_graph, nf = timed (fun () -> canonical_host job) in
          normal_form := nf :: !normal_form;
          let cfg, input = trial_plan job host_graph in
          let job_sim = ref 0.0 in
          let pairs =
            List.init job.Proto.trials (fun t ->
                let (rng, g), gt = timed (fun () -> input t) in
                gen := gt :: !gen;
                let replayed, rt =
                  timed (fun () -> Replica.run ~trace:tr ~pool ~counters ~rng cfg g)
                in
                let rng, g = input t in
                let r, et = timed (fun () -> Engine.run ~rng cfg g) in
                replica_time := !replica_time +. rt;
                engine_time := !engine_time +. et;
                job_sim := !job_sim +. gt +. et;
                (replayed, r))
          in
          sim := !job_sim :: !sim;
          List.for_all (fun (replayed, r) -> Replica.matches replayed r) pairs
          && summary (List.map snd pairs) = Json.to_string records.(j).summary)
        sampled
    in
    Option.iter (Trace.dump tr) spans;
    let mean_job = mean latencies in
    let admit_frac =
      ratio (mean (Array.map (fun r -> r.acked -. r.submitted) records)) mean_job
    in
    let computed = Array.fold_left (fun a r -> if r.cached then a else a + 1) 0 records in
    let sim_frac =
      ratio
        (float_of_int computed /. float_of_int count *. mean (Array.of_list !sim))
        mean_job
    in
    let delta name = counter after name - counter before name in
    let service =
      {
        Layers.admit_frac;
        normal_form_frac = ratio (mean (Array.of_list !normal_form)) mean_job;
        sim_frac;
        wait_io_frac = 1.0 -. admit_frac -. sim_frac;
        cache_hits = delta "cache_hits";
        cache_misses = delta "cache_misses";
        retries = delta "retries";
        worker_deaths = delta "worker_deaths";
        shed =
          delta "shed_queue_full" + delta "shed_overloaded" + delta "shed_draining";
      }
    in
    {
      correct = failed = 0 && consistent && agree;
      attempted = count;
      failed;
      metrics =
        Layers.metrics ~trace:tr ~counters ~ops:latencies
          ~gen:(Array.of_list !gen)
          ~overhead:((!replica_time /. !engine_time) -. 1.0)
          ~service ();
    }
  end
