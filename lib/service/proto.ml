module Q = Ncg_rational.Q

type shed_reason = Queue_full | Overloaded | Draining

let shed_reason_label = function
  | Queue_full -> "queue_full"
  | Overloaded -> "overloaded"
  | Draining -> "draining"

type host = Complete of int | Edges of int * (int * int) list

type job = {
  game : Model.game;
  dist : Model.dist_mode;
  alpha : Q.t;
  policy : Policy.t;
  tie_break : Engine.tie_break;
  host : host;
  seed : int;
  trials : int;
  edge_prob : float;
  max_steps : int option;
  deadline : float option;
}

let host_n = function Complete n -> n | Edges (n, _) -> n

(* ------------------------------------------------------------------ *)
(* Enum codecs                                                         *)
(* ------------------------------------------------------------------ *)

let game_label = function
  | Model.Sg -> "sg"
  | Model.Asg -> "asg"
  | Model.Gbg -> "gbg"
  | Model.Bg -> "bg"
  | Model.Bilateral -> "bilateral"

let game_of_label = function
  | "sg" -> Ok Model.Sg
  | "asg" -> Ok Model.Asg
  | "gbg" -> Ok Model.Gbg
  | "bg" -> Ok Model.Bg
  | "bilateral" -> Ok Model.Bilateral
  | s -> Error (Printf.sprintf "unknown game %S" s)

let dist_label = function Model.Sum -> "sum" | Model.Max -> "max"

let dist_of_label = function
  | "sum" -> Ok Model.Sum
  | "max" -> Ok Model.Max
  | s -> Error (Printf.sprintf "unknown dist mode %S" s)

let policy_label = function
  | Policy.Max_cost -> "max_cost"
  | Policy.Random_unhappy -> "random_unhappy"
  | Policy.Round_robin -> "round_robin"
  | Policy.Adversarial _ -> "adversarial"

let policy_of_label = function
  | "max_cost" -> Ok Policy.Max_cost
  | "random_unhappy" -> Ok Policy.Random_unhappy
  | "round_robin" -> Ok Policy.Round_robin
  | s -> Error (Printf.sprintf "unknown policy %S" s)

let tie_label = function
  | Engine.Uniform -> "uniform"
  | Engine.Prefer_deletion -> "prefer_deletion"
  | Engine.First_candidate -> "first_candidate"

let tie_of_label = function
  | "uniform" -> Ok Engine.Uniform
  | "prefer_deletion" -> Ok Engine.Prefer_deletion
  | "first_candidate" -> Ok Engine.First_candidate
  | s -> Error (Printf.sprintf "unknown tie_break %S" s)

(* Alpha is exact: an integer, or a "p/q" (or "p") string.  Floats are
   rejected — 0.1 is not 1/10, and silently rounding the edge price
   would change which moves improve. *)
let alpha_of_json = function
  | Json.Int n when n > 0 -> Ok (Q.of_int n)
  | Json.Str s -> (
      match String.index_opt s '/' with
      | None -> (
          match int_of_string_opt (String.trim s) with
          | Some p when p > 0 -> Ok (Q.of_int p)
          | _ -> Error (Printf.sprintf "bad alpha %S" s))
      | Some i -> (
          let p = int_of_string_opt (String.trim (String.sub s 0 i)) in
          let q =
            int_of_string_opt
              (String.trim (String.sub s (i + 1) (String.length s - i - 1)))
          in
          match (p, q) with
          | Some p, Some q when q <> 0 && Q.gt (Q.make p q) Q.zero ->
              Ok (Q.make p q)
          | _ -> Error (Printf.sprintf "bad alpha %S" s)))
  | _ -> Error "alpha must be a positive integer or a \"p/q\" string"

let alpha_to_json a =
  if Q.is_integer a then
    match int_of_string_opt (Q.to_string a) with
    | Some n -> Json.Int n
    | None -> Json.Str (Q.to_string a)
  else Json.Str (Q.to_string a)

(* ------------------------------------------------------------------ *)
(* Job codec                                                           *)
(* ------------------------------------------------------------------ *)

let ( let* ) = Result.bind

let field_str ?default j key =
  match Json.member key j with
  | None -> (
      match default with
      | Some d -> Ok d
      | None -> Error (Printf.sprintf "missing field %S" key))
  | Some v -> (
      match Json.to_str v with
      | Some s -> Ok s
      | None -> Error (Printf.sprintf "field %S must be a string" key))

let field_int ?default j key =
  match Json.member key j with
  | None -> (
      match default with
      | Some d -> Ok d
      | None -> Error (Printf.sprintf "missing field %S" key))
  | Some v -> (
      match Json.to_int v with
      | Some n -> Ok n
      | None -> Error (Printf.sprintf "field %S must be an integer" key))

let host_of_json j =
  let* n = field_int j "n" in
  if n < 1 then Error "n must be >= 1"
  else
    match Json.member "host" j with
    | None | Some (Json.Str "complete") -> Ok (Complete n)
    | Some (Json.List pairs) ->
        let rec decode acc = function
          | [] -> Ok (Edges (n, List.rev acc))
          | Json.List [ u; v ] :: rest -> (
              match (Json.to_int u, Json.to_int v) with
              | Some u, Some v
                when u >= 0 && u < n && v >= 0 && v < n && u <> v ->
                  decode ((u, v) :: acc) rest
              | _ -> Error "host edges must be distinct in-range [u,v] pairs")
          | _ -> Error "host edges must be [u,v] pairs"
        in
        let* h = decode [] pairs in
        (* reject duplicate edges up front: Graph.add_edge would raise in
           the worker, turning a bad request into a crash loop *)
        let seen = Hashtbl.create 16 in
        let dup =
          List.exists
            (fun (u, v) ->
              let k = (min u v, max u v) in
              Hashtbl.mem seen k
              ||
              (Hashtbl.add seen k ();
               false))
            (match h with Edges (_, es) -> es | Complete _ -> [])
        in
        if dup then Error "duplicate host edge" else Ok h
    | Some _ -> Error "host must be \"complete\" or an edge list"

let job_of_json j =
  let* game = Result.bind (field_str j "game") game_of_label in
  let* dist = Result.bind (field_str ~default:"sum" j "dist") dist_of_label in
  let* alpha =
    match Json.member "alpha" j with
    | None -> Ok Q.one
    | Some v -> alpha_of_json v
  in
  let* policy =
    Result.bind (field_str ~default:"max_cost" j "policy") policy_of_label
  in
  let* tie_break =
    Result.bind (field_str ~default:"uniform" j "tie_break") tie_of_label
  in
  let* host = host_of_json j in
  let* seed = field_int ~default:2013 j "seed" in
  let* trials = field_int ~default:1 j "trials" in
  if trials < 1 then Error "trials must be >= 1"
  else
    let* edge_prob =
      match Json.member "edge_prob" j with
      | None -> Ok 0.0
      | Some v -> (
          match Json.to_float_opt v with
          | Some p when p >= 0.0 && p <= 1.0 -> Ok p
          | _ -> Error "edge_prob must be in [0, 1]")
    in
    let* max_steps =
      match Json.member "max_steps" j with
      | None | Some Json.Null -> Ok None
      | Some v -> (
          match Json.to_int v with
          | Some s when s >= 1 -> Ok (Some s)
          | _ -> Error "max_steps must be a positive integer")
    in
    let* deadline =
      match Json.member "deadline" j with
      | None | Some Json.Null -> Ok None
      | Some v -> (
          match Json.to_float_opt v with
          | Some d when d > 0.0 -> Ok (Some d)
          | _ -> Error "deadline must be a positive number of seconds")
    in
    Ok
      {
        game;
        dist;
        alpha;
        policy;
        tie_break;
        host;
        seed;
        trials;
        edge_prob;
        max_steps;
        deadline;
      }

let host_to_json = function
  | Complete _ -> Json.Str "complete"
  | Edges (_, pairs) ->
      Json.List
        (List.map (fun (u, v) -> Json.List [ Json.Int u; Json.Int v ]) pairs)

let json_of_job job =
  [
    ("game", Json.Str (game_label job.game));
    ("dist", Json.Str (dist_label job.dist));
    ("alpha", alpha_to_json job.alpha);
    ("policy", Json.Str (policy_label job.policy));
    ("tie_break", Json.Str (tie_label job.tie_break));
    ("n", Json.Int (host_n job.host));
    ("host", host_to_json job.host);
    ("seed", Json.Int job.seed);
    ("trials", Json.Int job.trials);
    ("edge_prob", Json.Float job.edge_prob);
  ]
  @ (match job.max_steps with
    | None -> []
    | Some s -> [ ("max_steps", Json.Int s) ])
  @
  match job.deadline with
  | None -> []
  | Some d -> [ ("deadline", Json.Float d) ]

let params_fingerprint job =
  Printf.sprintf "%s:%s:%s:%s:%s:%d:%d:%d:%h:%s"
    (game_label job.game) (dist_label job.dist)
    (Q.to_string job.alpha)
    (policy_label job.policy)
    (tie_label job.tie_break)
    (host_n job.host) job.seed job.trials job.edge_prob
    (match job.max_steps with None -> "-" | Some s -> string_of_int s)

(* ------------------------------------------------------------------ *)
(* Replies                                                             *)
(* ------------------------------------------------------------------ *)

let with_tag tag fields =
  match tag with Json.Null -> fields | t -> fields @ [ ("tag", t) ]

let ack ~id ~tag =
  Json.Obj (with_tag tag [ ("type", Json.Str "ack"); ("job", Json.Int id) ])

let error ~message ~tag =
  Json.Obj
    (with_tag tag
       [ ("type", Json.Str "error"); ("message", Json.Str message) ])

let outcome_shed ~id ~tag ~reason ~retry_after =
  Json.Obj
    (with_tag tag
       [
         ("type", Json.Str "outcome");
         ("job", Json.Int id);
         ("status", Json.Str "shed");
         ("reason", Json.Str (shed_reason_label reason));
         ("retry_after", Json.Float retry_after);
       ])

let outcome_completed ~id ~tag ~attempts ~cached ~summary =
  Json.Obj
    (with_tag tag
       [
         ("type", Json.Str "outcome");
         ("job", Json.Int id);
         ("status", Json.Str "completed");
         ("attempts", Json.Int attempts);
         ("cached", Json.Bool cached);
         ("summary", summary);
       ])

let outcome_deadline_exceeded ~id ~tag ~attempts ~summary =
  Json.Obj
    (with_tag tag
       ([
          ("type", Json.Str "outcome");
          ("job", Json.Int id);
          ("status", Json.Str "deadline_exceeded");
          ("attempts", Json.Int attempts);
        ]
       @ match summary with None -> [] | Some s -> [ ("summary", s) ]))

let outcome_faulted ~id ~tag ~attempts ~cause =
  Json.Obj
    (with_tag tag
       [
         ("type", Json.Str "outcome");
         ("job", Json.Int id);
         ("status", Json.Str "faulted");
         ("attempts", Json.Int attempts);
         ("cause", Json.Str cause);
       ])

let incident ~id ~tag ~cause ~attempt ~retry_in =
  Json.Obj
    (with_tag tag
       ([
          ("type", Json.Str "incident");
          ("job", Json.Int id);
          ("cause", Json.Str cause);
          ("attempt", Json.Int attempt);
        ]
       @
       match retry_in with
       | None -> []
       | Some d -> [ ("retry_in", Json.Float d) ]))

(* ------------------------------------------------------------------ *)
(* Worker wire                                                         *)
(* ------------------------------------------------------------------ *)

let worker_job ~id ~host ~budget job =
  Json.Obj
    ([ ("job_id", Json.Int id) ]
    @ json_of_job { job with host }
    @ match budget with None -> [] | Some b -> [ ("budget", Json.Float b) ])

type worker_result = Done of Json.t | Deadline of Json.t | Failed of string

let worker_result_to_json ?batch ~id result =
  let batch_field =
    match batch with Some b -> [ ("batch", b) ] | None -> []
  in
  match result with
  | Done summary ->
      Json.Obj
        ([
           ("job_id", Json.Int id);
           ("status", Json.Str "completed");
           ("summary", summary);
         ]
        @ batch_field)
  | Deadline summary ->
      Json.Obj
        ([
           ("job_id", Json.Int id);
           ("status", Json.Str "deadline_exceeded");
           ("summary", summary);
         ]
        @ batch_field)
  | Failed message ->
      Json.Obj
        ([
           ("job_id", Json.Int id);
           ("status", Json.Str "error");
           ("message", Json.Str message);
         ]
        @ batch_field)

let worker_result_of_json j =
  match (Json.member "job_id" j, Json.member "status" j) with
  | Some id, Some (Json.Str status) -> (
      match Json.to_int id with
      | None -> Error "job_id must be an integer"
      | Some id -> (
          let summary () =
            Option.value (Json.member "summary" j) ~default:Json.Null
          in
          match status with
          | "completed" -> Ok (id, Done (summary ()))
          | "deadline_exceeded" -> Ok (id, Deadline (summary ()))
          | "error" ->
              let msg =
                match Json.member "message" j with
                | Some (Json.Str m) -> m
                | _ -> "unknown worker error"
              in
              Ok (id, Failed msg)
          | s -> Error (Printf.sprintf "unknown worker status %S" s)))
  | _ -> Error "worker result needs job_id and status"

let summary_to_json (s : Stats.summary) =
  Json.Obj
    [
      ("runs", Json.Int s.runs);
      ("converged", Json.Int s.converged);
      ("cycles", Json.Int s.cycles);
      ("limited", Json.Int s.limited);
      ("timed_out", Json.Int s.timed_out);
      ("faulted", Json.Int s.faulted);
      ("errors", Json.Int s.errors);
      ("retried", Json.Int s.retried);
      ("quarantined", Json.Int s.quarantined);
      ("degraded", Json.Int s.degraded);
      ( "avg_steps",
        if Float.is_finite s.avg_steps then Json.Float s.avg_steps
        else Json.Null );
      ("max_steps", Json.Int s.max_steps);
      ("min_steps", Json.Int s.min_steps);
    ]

(* ------------------------------------------------------------------ *)
(* Line framing                                                        *)
(* ------------------------------------------------------------------ *)

module Line_reader = struct
  exception Stalled

  type t = {
    fd : Unix.file_descr;
    buf : Buffer.t;
    chunk : Bytes.t;
    mutable frame_started : float;  (* monotonic; 0.0 = not mid-frame *)
  }

  let create fd =
    { fd; buf = Buffer.create 4096; chunk = Bytes.create 4096;
      frame_started = 0.0 }

  (* Only a partial frame starts the clock (see the interface). *)
  let rec line ?(frame_timeout = 0.0) t =
    let s = Buffer.contents t.buf in
    match String.index_opt s '\n' with
    | Some i ->
        Buffer.clear t.buf;
        Buffer.add_substring t.buf s (i + 1) (String.length s - i - 1);
        t.frame_started <- 0.0;
        Some (String.sub s 0 i)
    | None ->
        if frame_timeout > 0.0 && Buffer.length t.buf > 0 then begin
          if t.frame_started = 0.0 then t.frame_started <- Clock.monotonic ();
          let remaining =
            t.frame_started +. frame_timeout -. Clock.monotonic ()
          in
          if remaining <= 0.0 then raise Stalled;
          match Unix.select [ t.fd ] [] [] remaining with
          | exception Unix.Unix_error (Unix.EINTR, _, _) ->
              line ~frame_timeout t
          | [], _, _ -> raise Stalled
          | _ -> read_chunk frame_timeout t
        end
        else read_chunk frame_timeout t

  and read_chunk frame_timeout t =
    let k = Sysx.read t.fd t.chunk 0 (Bytes.length t.chunk) in
    if k = 0 then None
    else begin
      Buffer.add_subbytes t.buf t.chunk 0 k;
      line ~frame_timeout t
    end
end

let send_line fd json =
  Sysx.write_all fd (Bytes.of_string (Json.to_string json ^ "\n"))
