(* loadgen: closed-loop client for ncg_serve.

   Spawns N client threads, each holding one connection and one job in
   flight; sheds are retried with jittered exponential backoff, so a
   "logical job" is retried-until-admitted and must then end in exactly
   one terminal outcome (completed / deadline_exceeded / faulted).  The
   final line on stdout is a JSON report; exit status is non-zero if any
   logical job was lost (no terminal outcome) or duplicated (a second
   terminal outcome for an already-resolved job).

   --kill-storm SECS turns it into a chaos soak: a background thread
   SIGKILLs a random live worker (found through the daemon's lease
   files) every SECS while the clients run. *)

module Json = Ncg_experiments.Json
module Proto = Ncg_service.Proto
module Lease = Ncg_experiments.Lease
module Sysx = Ncg_experiments.Sysx
module Clock = Ncg_experiments.Clock

let socket_path = ref "ncg-serve/ncg.sock"
let clients = ref 4
let jobs_per_client = ref 25
let host_n = ref 12
let trials = ref 3
let deadline = ref 0.0
let alpha = ref "3"
let game = ref "sg"
let edge_prob = ref 0.15
let kill_storm = ref 0.0
let lease_dir = ref "ncg-serve/leases"
let seed0 = ref 2013
let distinct_hosts = ref 0
let out_file = ref ""
let stutter = ref 0

let spec =
  [
    ("--socket", Arg.Set_string socket_path, "PATH daemon socket");
    ("--clients", Arg.Set_int clients, "N concurrent closed-loop clients");
    ("--jobs", Arg.Set_int jobs_per_client, "N logical jobs per client");
    ("--n", Arg.Set_int host_n, "N host-graph vertices per job");
    ("--trials", Arg.Set_int trials, "N trials per job");
    ("--deadline", Arg.Set_float deadline, "SECS per-job deadline (0: none)");
    ("--alpha", Arg.Set_string alpha, "Q edge cost, integer or p/q");
    ("--game", Arg.Set_string game, "G sg|asg|gbg|bg|bilateral");
    ("--edge-prob", Arg.Set_float edge_prob, "P extra-edge probability");
    ( "--distinct-hosts",
      Arg.Set_int distinct_hosts,
      "K cycle jobs through K distinct random hosts (0: complete graph)" );
    ( "--kill-storm",
      Arg.Set_float kill_storm,
      "SECS SIGKILL a random worker this often (0: off)" );
    ("--lease-dir", Arg.Set_string lease_dir, "DIR daemon lease directory");
    ("--seed", Arg.Set_int seed0, "N base seed");
    ("--out", Arg.Set_string out_file, "FILE write the JSON report here too");
    ( "--stutter",
      Arg.Set_int stutter,
      "N send each frame in chunks of at most N bytes (0: whole frame) — \
       exercises the daemon's arbitrary-read-boundary reassembly" );
  ]

let () = Arg.parse spec (fun _ -> ()) "loadgen [options]"

(* ------------------------------------------------------------------ *)

let connect () =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Sysx.connect fd (Unix.ADDR_UNIX !socket_path);
  fd

(* With --stutter N the frame goes out in <= N-byte writes, so the
   daemon sees it split at arbitrary read boundaries — wire-framing must
   reassemble, not assume one read per line. *)
let send_line fd frame =
  if !stutter <= 0 then Proto.send_line fd frame
  else begin
    let b = Bytes.of_string (Json.to_string frame ^ "\n") in
    let len = Bytes.length b in
    let off = ref 0 in
    while !off < len do
      let k = min !stutter (len - !off) in
      Sysx.write_all fd (Bytes.sub b !off k);
      off := !off + k
    done
  end

(* ------------------------------------------------------------------ *)

type tally = {
  mutable completed : int;
  mutable deadline_exceeded : int;
  mutable faulted : int;
  mutable rejected : int;  (* protocol-level errors (also terminal) *)
  mutable shed : int;  (* shed replies seen (each is retried) *)
  mutable incidents : int;
  mutable cached : int;
  mutable lost : int;  (* no terminal outcome (connection died) *)
  mutable duplicated : int;  (* second terminal outcome for one job *)
  mutable latencies : float list;  (* admitted-to-terminal, seconds *)
}

let fresh_tally () =
  {
    completed = 0;
    deadline_exceeded = 0;
    faulted = 0;
    rejected = 0;
    shed = 0;
    incidents = 0;
    cached = 0;
    lost = 0;
    duplicated = 0;
    latencies = [];
  }

(* The job mix: either everyone submits the complete graph (every job a
   distinct seed, maximum churn) or jobs cycle through K distinct random
   connected hosts shared across clients — and each client submits its
   own relabeling of the pooled host, so repeats are isomorphic rather
   than textually identical and deduplication has to happen through the
   daemon's canonicalization, not string equality.  Built here, once, from
   the parsed options and before any client thread starts: the threads
   only read it (a shared lazy forced from several threads raises
   [CamlinternalLazy.Undefined] in all but the first). *)
let host_pool =
  Array.init (max 0 !distinct_hosts) (fun k ->
      let rng = Random.State.make [| !seed0; k; 31337 |] in
      let g = Ncg_graph.Gen.random_connected rng !host_n 0.25 in
      List.map (fun (u, v, _) -> (u, v)) (Ncg_graph.Graph.edges g))

let host_json ~client k =
  if !distinct_hosts <= 0 then Json.Str "complete"
  else begin
    let pairs = host_pool.(k mod !distinct_hosts) in
    let rot v = (v + client) mod !host_n in
    Json.List
      (List.map
         (fun (u, v) -> Json.List [ Json.Int (rot u); Json.Int (rot v) ])
         pairs)
  end

let job_frame ~client ~tag ~seed ~hostk =
  Json.Obj
    [
      ("op", Json.Str "submit");
      ("tag", Json.Int tag);
      ("game", Json.Str !game);
      ("alpha", Json.Str !alpha);
      ("n", Json.Int !host_n);
      ("host", host_json ~client hostk);
      ("seed", Json.Int seed);
      ("trials", Json.Int !trials);
      ("edge_prob", Json.Float !edge_prob);
      ("deadline", if !deadline > 0.0 then Json.Float !deadline else Json.Null);
    ]

let jget j k = Json.member k j
let jstr j k = Option.bind (jget j k) Json.to_str

let is_terminal kind status =
  match (kind, status) with
  | Some "error", _ -> true
  | Some "outcome", Some ("completed" | "deadline_exceeded" | "faulted") ->
      true
  | _ -> false

(* One logical job: submit, retry sheds with jittered backoff, wait for
   the single terminal outcome.  [resolved] remembers every tag this
   connection has already seen resolve, so a stray second terminal line
   for an old job is detected instead of silently skipped.  Returns
   [false] when the connection died before the job resolved. *)
let run_job rng t r fd ~resolved ~client ~tag ~seed ~hostk =
  let rec submit attempt =
    send_line fd (job_frame ~client ~tag ~seed ~hostk);
    let admitted_at = Clock.monotonic () in
    let rec wait () =
      match Proto.Line_reader.line r with
      | None -> false
      | Some line -> (
          match Json.parse line with
          | exception Json.Parse_error _ -> wait ()
          | j -> (
              let jtag = Option.bind (jget j "tag") Json.to_int in
              let kind = jstr j "type" in
              let status = jstr j "status" in
              if jtag <> Some tag then begin
                (match jtag with
                | Some old
                  when Hashtbl.mem resolved old && is_terminal kind status ->
                    t.duplicated <- t.duplicated + 1
                | _ -> ());
                wait ()
              end
              else
                match (kind, status) with
                | Some "ack", _ -> wait ()
                | Some "incident", _ ->
                    t.incidents <- t.incidents + 1;
                    wait ()
                | Some "outcome", Some "shed" ->
                    t.shed <- t.shed + 1;
                    let hint =
                      match
                        Option.bind (jget j "retry_after") Json.to_float_opt
                      with
                      | Some h -> h
                      | None -> 0.1
                    in
                    let backoff =
                      hint
                      *. (0.5 +. Random.State.float rng 1.0)
                      *. (1.0 +. (0.25 *. float_of_int attempt))
                    in
                    Sysx.sleepf (Float.min 5.0 backoff);
                    submit (attempt + 1)
                | Some "outcome", Some "completed" ->
                    t.completed <- t.completed + 1;
                    (match jget j "cached" with
                    | Some (Json.Bool true) -> t.cached <- t.cached + 1
                    | _ -> ());
                    t.latencies <-
                      (Clock.monotonic () -. admitted_at) :: t.latencies;
                    Hashtbl.replace resolved tag ();
                    true
                | Some "outcome", Some "deadline_exceeded" ->
                    t.deadline_exceeded <- t.deadline_exceeded + 1;
                    t.latencies <-
                      (Clock.monotonic () -. admitted_at) :: t.latencies;
                    Hashtbl.replace resolved tag ();
                    true
                | Some "outcome", Some "faulted" ->
                    t.faulted <- t.faulted + 1;
                    t.latencies <-
                      (Clock.monotonic () -. admitted_at) :: t.latencies;
                    Hashtbl.replace resolved tag ();
                    true
                | Some "error", _ ->
                    t.rejected <- t.rejected + 1;
                    Hashtbl.replace resolved tag ();
                    true
                | _ -> wait ()))
    in
    wait ()
  in
  submit 0

let client_thread idx =
  let t = fresh_tally () in
  let rng = Random.State.make [| !seed0; idx; 7919 |] in
  let resolved = Hashtbl.create 64 in
  (try
     let fd = connect () in
     let r = Proto.Line_reader.create fd in
     for k = 0 to !jobs_per_client - 1 do
       let tag = (idx * 1_000_000) + k in
       let hostk = (idx * !jobs_per_client) + k in
       (* distinct-host mode keys the seed to the host so isomorphic
          resubmissions carry equal parameters and can hit the cache *)
       let seed =
         if !distinct_hosts > 0 then !seed0 + (hostk mod !distinct_hosts)
         else !seed0 + hostk
       in
       if not (run_job rng t r fd ~resolved ~client:idx ~tag ~seed ~hostk)
       then t.lost <- t.lost + 1
     done;
     try Unix.close fd with Unix.Unix_error _ -> ()
   with e ->
     (* Whatever killed this client, every job it had not resolved is
        lost — the report must not count a dead thread as a clean one. *)
     Printf.eprintf "loadgen: client %d died: %s\n%!" idx
       (Printexc.to_string e);
     t.lost <-
       t.lost
       + (!jobs_per_client
         - (t.completed + t.deadline_exceeded + t.faulted + t.rejected
          + t.lost)));
  t

(* ------------------------------------------------------------------ *)

let storm_stop = Atomic.make false

let storm_thread () =
  let rng = Random.State.make [| !seed0; 104729 |] in
  while not (Atomic.get storm_stop) do
    Sysx.sleepf !kill_storm;
    if not (Atomic.get storm_stop) then begin
      let victims = ref [] in
      for shard = 0 to 63 do
        match
          Lease.load ~dir:!lease_dir ~fingerprint:"ncg-serve-1" ~shard
        with
        | Ok l when l.Lease.status = Lease.Running && l.Lease.owner > 0 ->
            (* owner 0: assigned, but its worker has not claimed it yet *)
            victims := l.Lease.owner :: !victims
        | Ok _ | Error _ -> ()
      done;
      match !victims with
      | [] -> ()
      | vs -> Sysx.kill (List.nth vs (Random.State.int rng (List.length vs)))
                Sys.sigkill
    end
  done

(* ------------------------------------------------------------------ *)

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then Float.nan
  else sorted.(min (n - 1) (int_of_float ((float_of_int (n - 1) *. q) +. 0.5)))

let () =
  let start = Clock.monotonic () in
  let storm =
    if !kill_storm > 0.0 then Some (Thread.create storm_thread ()) else None
  in
  let cells =
    List.init !clients (fun i ->
        let res = ref (fresh_tally ()) in
        let th = Thread.create (fun () -> res := client_thread i) () in
        (th, res))
  in
  List.iter (fun (th, _) -> Thread.join th) cells;
  Atomic.set storm_stop true;
  Option.iter Thread.join storm;
  let elapsed = Clock.monotonic () -. start in
  let total = fresh_tally () in
  List.iter
    (fun (_, res) ->
      let t = !res in
      total.completed <- total.completed + t.completed;
      total.deadline_exceeded <- total.deadline_exceeded + t.deadline_exceeded;
      total.faulted <- total.faulted + t.faulted;
      total.rejected <- total.rejected + t.rejected;
      total.shed <- total.shed + t.shed;
      total.incidents <- total.incidents + t.incidents;
      total.cached <- total.cached + t.cached;
      total.lost <- total.lost + t.lost;
      total.duplicated <- total.duplicated + t.duplicated;
      total.latencies <- t.latencies @ total.latencies)
    cells;
  let lats = Array.of_list total.latencies in
  Array.sort compare lats;
  let terminal =
    total.completed + total.deadline_exceeded + total.faulted + total.rejected
  in
  let num f = if Float.is_finite f then Json.Float f else Json.Null in
  let report =
    Json.Obj
      [
        ("clients", Json.Int !clients);
        ("logical_jobs", Json.Int (!clients * !jobs_per_client));
        ("terminal", Json.Int terminal);
        ("completed", Json.Int total.completed);
        ("deadline_exceeded", Json.Int total.deadline_exceeded);
        ("faulted", Json.Int total.faulted);
        ("rejected", Json.Int total.rejected);
        ("shed_retries", Json.Int total.shed);
        ("incidents", Json.Int total.incidents);
        ("cached", Json.Int total.cached);
        ("lost", Json.Int total.lost);
        ("duplicated", Json.Int total.duplicated);
        ("elapsed_s", num elapsed);
        ( "throughput_jobs_per_s",
          num (float_of_int terminal /. Float.max elapsed 1e-9) );
        ( "latency",
          Json.Obj
            [
              ("count", Json.Int (Array.length lats));
              ("p50", num (percentile lats 0.5));
              ("p90", num (percentile lats 0.9));
              ("p99", num (percentile lats 0.99));
              ( "max",
                if Array.length lats = 0 then Json.Null
                else num lats.(Array.length lats - 1) );
            ] );
      ]
  in
  let line = Json.to_string report in
  print_endline line;
  if !out_file <> "" then begin
    let oc = open_out !out_file in
    output_string oc (line ^ "\n");
    close_out oc
  end;
  if
    total.lost > 0 || total.duplicated > 0
    || terminal <> !clients * !jobs_per_client
  then exit 1
