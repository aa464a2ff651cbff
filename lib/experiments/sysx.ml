(* EINTR-safe syscall wrappers with a deterministic fault-injection
   layer.  The public functions below are the ONLY path durable artifacts
   (checkpoints, leases, the incident log, the service wire) use to reach
   the kernel, so arming [Faulty] interposes on every one of them; when
   disarmed (the default), each wrapper costs one ref load and a branch
   on top of the raw call. *)

module Faulty = struct
  type op =
    | Read
    | Write
    | Openfile
    | Close
    | Rename
    | Unlink
    | Fsync
    | Fsync_dir
    | Connect
    | Any

  type action =
    | Short of int
    | Eintr of int
    | Err of Unix.error
    | Torn of int
    | Crash_before
    | Crash_after

  type rule = { op : op; where : string option; at : int; act : action }

  type state = {
    rules : (rule * int ref) list;
    mutable trace_rev : (op * string) list;
    tracing : bool;
    mu : Mutex.t;
    fd_paths : (Unix.file_descr, string) Hashtbl.t;
  }

  (* The armed state.  A single process-global slot: fault plans describe
     one process's syscall stream, and the enumeration tools fork a fresh
     child per plan. *)
  let state : state option ref = ref None

  let armed () = !state <> None

  let arm ?(tracing = false) rules =
    state :=
      Some
        {
          rules = List.map (fun r -> (r, ref 0)) rules;
          trace_rev = [];
          tracing;
          mu = Mutex.create ();
          fd_paths = Hashtbl.create 16;
        }

  let disarm () = state := None

  let trace () =
    match !state with None -> [] | Some st -> List.rev st.trace_rev

  (* ---------------------------------------------------------------- *)
  (* Plan grammar                                                      *)
  (* ---------------------------------------------------------------- *)

  let op_label = function
    | Read -> "read"
    | Write -> "write"
    | Openfile -> "openfile"
    | Close -> "close"
    | Rename -> "rename"
    | Unlink -> "unlink"
    | Fsync -> "fsync"
    | Fsync_dir -> "fsync_dir"
    | Connect -> "connect"
    | Any -> "any"

  let op_of_label = function
    | "read" -> Some Read
    | "write" -> Some Write
    | "openfile" -> Some Openfile
    | "close" -> Some Close
    | "rename" -> Some Rename
    | "unlink" -> Some Unlink
    | "fsync" -> Some Fsync
    | "fsync_dir" -> Some Fsync_dir
    | "connect" -> Some Connect
    | "any" -> Some Any
    | _ -> None

  let errors =
    [
      ("EIO", Unix.EIO);
      ("ENOSPC", Unix.ENOSPC);
      ("EMFILE", Unix.EMFILE);
      ("EINTR", Unix.EINTR);
      ("ECONNRESET", Unix.ECONNRESET);
      ("EPIPE", Unix.EPIPE);
      ("EACCES", Unix.EACCES);
      ("ENOENT", Unix.ENOENT);
      ("EAGAIN", Unix.EAGAIN);
      ("EBADF", Unix.EBADF);
    ]

  let error_label e =
    match List.find_opt (fun (_, e') -> e = e') errors with
    | Some (l, _) -> l
    | None -> Unix.error_message e

  let error_of_label l = Option.map snd (List.find_opt (fun (l', _) -> l = l') errors)

  let action_to_string = function
    | Short n -> Printf.sprintf "short=%d" n
    | Eintr n -> Printf.sprintf "eintr=%d" n
    | Err e -> "err=" ^ error_label e
    | Torn n -> Printf.sprintf "torn=%d" n
    | Crash_before -> "crash_before"
    | Crash_after -> "crash_after"

  let rule_to_string r =
    Printf.sprintf "%s%s@%d:%s" (op_label r.op)
      (match r.where with None -> "" | Some w -> "[" ^ w ^ "]")
      r.at (action_to_string r.act)

  let to_string rules = String.concat ";" (List.map rule_to_string rules)

  let ( let* ) = Result.bind

  let parse_action s =
    let kv key =
      let prefix = key ^ "=" in
      let pl = String.length prefix in
      if String.length s > pl && String.sub s 0 pl = prefix then
        Some (String.sub s pl (String.length s - pl))
      else None
    in
    match s with
    | "crash_before" -> Ok Crash_before
    | "crash_after" -> Ok Crash_after
    | _ -> (
        let int_arg v k =
          match int_of_string_opt v with
          | Some n when n >= 0 -> Ok (k n)
          | _ -> Error (Printf.sprintf "bad count in action %S" s)
        in
        match (kv "short", kv "eintr", kv "err", kv "torn") with
        | Some v, _, _, _ -> int_arg v (fun n -> Short n)
        | _, Some v, _, _ -> int_arg v (fun n -> Eintr n)
        | _, _, Some v, _ -> (
            match error_of_label v with
            | Some e -> Ok (Err e)
            | None -> Error (Printf.sprintf "unknown error code %S" v))
        | _, _, _, Some v -> int_arg v (fun n -> Torn n)
        | _ -> Error (Printf.sprintf "unknown action %S" s))

  let parse_rule s =
    match String.index_opt s '@' with
    | None -> Error (Printf.sprintf "rule %S: missing '@k'" s)
    | Some i -> (
        let head = String.sub s 0 i in
        let rest = String.sub s (i + 1) (String.length s - i - 1) in
        let* op, where =
          match String.index_opt head '[' with
          | None -> (
              match op_of_label head with
              | Some op -> Ok (op, None)
              | None -> Error (Printf.sprintf "unknown op %S" head))
          | Some j ->
              if String.length head = 0 || head.[String.length head - 1] <> ']'
              then Error (Printf.sprintf "rule %S: unterminated path filter" s)
              else
                let opname = String.sub head 0 j in
                let where = String.sub head (j + 1) (String.length head - j - 2) in
                (match op_of_label opname with
                | Some op -> Ok (op, Some where)
                | None -> Error (Printf.sprintf "unknown op %S" opname))
        in
        match String.index_opt rest ':' with
        | None -> Error (Printf.sprintf "rule %S: missing ':action'" s)
        | Some j -> (
            let at = String.sub rest 0 j in
            let act = String.sub rest (j + 1) (String.length rest - j - 1) in
            match int_of_string_opt at with
            | Some at when at >= 0 -> (
                let* act = parse_action act in
                match (at, act) with
                | 0, (Eintr _ | Crash_before | Crash_after | Torn _ | Err _) ->
                    Error
                      (Printf.sprintf
                         "rule %S: '@0' (every call) only composes with \
                          short="
                         s)
                | _ -> Ok { op; where; at; act })
            | _ -> Error (Printf.sprintf "rule %S: bad call index" s)))

  let parse s =
    if String.trim s = "" then Ok []
    else
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | r :: rest ->
            let* rule = parse_rule (String.trim r) in
            go (rule :: acc) rest
      in
      go [] (String.split_on_char ';' s)

  (* ---------------------------------------------------------------- *)
  (* Decision engine                                                   *)
  (* ---------------------------------------------------------------- *)

  type decision =
    | Proceed
    | Cap of int
    | Raise of Unix.error
    | Tear of int
    | Crash of [ `Before | `After ]

  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    nn = 0
    ||
    let rec go i =
      i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
    in
    go 0

  (* One decision per syscall.  Every matching rule's counter advances on
     every matching call (whether or not it fires), so a plan's k-th-call
     indices are a pure function of the syscall stream — the determinism
     the crash-point enumerator relies on.  When several rules fire at
     once, a destructive action (crash / tear / error) beats a throttle
     (short / EINTR); within a class, plan order wins. *)
  let decide st op path =
    Mutex.lock st.mu;
    if st.tracing then st.trace_rev <- (op, path) :: st.trace_rev;
    let hard = ref None and soft = ref None in
    List.iter
      (fun (r, k) ->
        let applies =
          (r.op = Any || r.op = op)
          && match r.where with None -> true | Some w -> contains path w
        in
        if applies then begin
          incr k;
          let fires =
            match r.act with
            | Eintr n -> r.at > 0 && !k >= r.at && !k < r.at + n
            | _ -> r.at = 0 || !k = r.at
          in
          if fires then
            match r.act with
            | Crash_before -> if !hard = None then hard := Some (Crash `Before)
            | Crash_after -> if !hard = None then hard := Some (Crash `After)
            | Torn n -> if !hard = None then hard := Some (Tear n)
            | Err e -> if !hard = None then hard := Some (Raise e)
            | Short n -> if !soft = None then soft := Some (Cap n)
            | Eintr _ -> if !soft = None then soft := Some (Raise Unix.EINTR)
        end)
      st.rules;
    let d =
      match (!hard, !soft) with
      | Some d, _ -> d
      | None, Some d -> d
      | None, None -> Proceed
    in
    Mutex.unlock st.mu;
    d

  (* Simulated power failure: no atexit, no buffer flushes — the process
     vanishes at the faulted syscall, exactly like SIGKILL. *)
  let crash () : 'a = Unix._exit 70

  let register_fd st fd path =
    Mutex.lock st.mu;
    Hashtbl.replace st.fd_paths fd path;
    Mutex.unlock st.mu

  let forget_fd st fd =
    Mutex.lock st.mu;
    Hashtbl.remove st.fd_paths fd;
    Mutex.unlock st.mu

  let fd_path st fd =
    Mutex.lock st.mu;
    let p = Option.value (Hashtbl.find_opt st.fd_paths fd) ~default:"" in
    Mutex.unlock st.mu;
    p
end

(* ------------------------------------------------------------------ *)
(* Wrappers                                                            *)
(* ------------------------------------------------------------------ *)

let fault_unit op name path =
  match !Faulty.state with
  | None -> `Go
  | Some st -> (
      match Faulty.decide st op path with
      | Faulty.Proceed | Faulty.Cap _ -> `Go
      | Faulty.Raise e -> raise (Unix.Unix_error (e, name, path))
      | Faulty.Tear _ | Faulty.Crash `Before -> Faulty.crash ()
      | Faulty.Crash `After -> `Go_then_crash)

let rec read fd buf pos len =
  try
    match !Faulty.state with
    | None -> Unix.read fd buf pos len
    | Some st -> (
        match Faulty.decide st Faulty.Read (Faulty.fd_path st fd) with
        | Faulty.Proceed -> Unix.read fd buf pos len
        | Faulty.Cap n -> Unix.read fd buf pos (max 1 (min len n))
        | Faulty.Raise e -> raise (Unix.Unix_error (e, "read", ""))
        | Faulty.Tear _ | Faulty.Crash `Before -> Faulty.crash ()
        | Faulty.Crash `After ->
            let k = Unix.read fd buf pos len in
            ignore k;
            Faulty.crash ())
  with Unix.Unix_error (Unix.EINTR, _, _) -> read fd buf pos len

let rec write fd buf pos len =
  try
    match !Faulty.state with
    | None -> Unix.write fd buf pos len
    | Some st -> (
        match Faulty.decide st Faulty.Write (Faulty.fd_path st fd) with
        | Faulty.Proceed -> Unix.write fd buf pos len
        | Faulty.Cap n -> Unix.write fd buf pos (max 1 (min len n))
        | Faulty.Raise e -> raise (Unix.Unix_error (e, "write", ""))
        | Faulty.Tear n ->
            (* a torn write: the first [n] bytes reach the kernel, then
               the process dies — the canonical mid-record crash *)
            if min len n > 0 then ignore (Unix.write fd buf pos (min len n));
            Faulty.crash ()
        | Faulty.Crash `Before -> Faulty.crash ()
        | Faulty.Crash `After ->
            let k = Unix.write fd buf pos len in
            ignore k;
            Faulty.crash ())
  with Unix.Unix_error (Unix.EINTR, _, _) -> write fd buf pos len

let write_all fd buf =
  let len = Bytes.length buf in
  let rec go off = if off < len then go (off + write fd buf off (len - off)) in
  go 0

let rec openfile path flags perm =
  try
    match fault_unit Faulty.Openfile "open" path with
    | `Go ->
        let fd = Unix.openfile path flags perm in
        (match !Faulty.state with
        | Some st -> Faulty.register_fd st fd path
        | None -> ());
        fd
    | `Go_then_crash ->
        ignore (Unix.openfile path flags perm);
        Faulty.crash ()
  with Unix.Unix_error (Unix.EINTR, _, _) -> openfile path flags perm

let rec close fd =
  try
    match
      fault_unit Faulty.Close "close"
        (match !Faulty.state with
        | Some st -> Faulty.fd_path st fd
        | None -> "")
    with
    | `Go ->
        Unix.close fd;
        (match !Faulty.state with
        | Some st -> Faulty.forget_fd st fd
        | None -> ())
    | `Go_then_crash ->
        Unix.close fd;
        Faulty.crash ()
  with Unix.Unix_error (Unix.EINTR, _, _) -> close fd

let rec rename src dst =
  try
    match fault_unit Faulty.Rename "rename" dst with
    | `Go -> Unix.rename src dst
    | `Go_then_crash ->
        Unix.rename src dst;
        Faulty.crash ()
  with Unix.Unix_error (Unix.EINTR, _, _) -> rename src dst

let rec unlink path =
  try
    match fault_unit Faulty.Unlink "unlink" path with
    | `Go -> Unix.unlink path
    | `Go_then_crash ->
        Unix.unlink path;
        Faulty.crash ()
  with Unix.Unix_error (Unix.EINTR, _, _) -> unlink path

let rec fsync fd =
  try
    match
      fault_unit Faulty.Fsync "fsync"
        (match !Faulty.state with
        | Some st -> Faulty.fd_path st fd
        | None -> "")
    with
    | `Go -> Unix.fsync fd
    | `Go_then_crash ->
        Unix.fsync fd;
        Faulty.crash ()
  with Unix.Unix_error (Unix.EINTR, _, _) -> fsync fd

(* Directory durability: after renaming a temp file into place, the new
   directory entry itself must be fsynced or a power failure can forget
   the rename.  EINVAL (a filesystem that cannot fsync directories) is
   tolerated — there is nothing more we can do there. *)
let fsync_dir path =
  let raw () =
    match Unix.openfile path [ Unix.O_RDONLY ] 0 with
    | exception Unix.Unix_error _ -> ()
    | fd ->
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () ->
            let rec go () =
              try Unix.fsync fd
              with
              | Unix.Unix_error (Unix.EINTR, _, _) -> go ()
              | Unix.Unix_error (Unix.EINVAL, _, _) -> ()
            in
            go ())
  in
  let rec go () =
    try
      match fault_unit Faulty.Fsync_dir "fsync" path with
      | `Go -> raw ()
      | `Go_then_crash ->
          raw ();
          Faulty.crash ()
    with Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let sockaddr_string = function
  | Unix.ADDR_UNIX p -> p
  | Unix.ADDR_INET (host, port) ->
      Printf.sprintf "%s:%d" (Unix.string_of_inet_addr host) port

(* EINTR during connect(2) leaves the connection completing in the
   background; the retry treats EISCONN/EALREADY as success. *)
let connect fd addr =
  let rec retry () =
    try Unix.connect fd addr with
    | Unix.Unix_error (Unix.EINTR, _, _) -> (
        try retry ()
        with Unix.Unix_error ((Unix.EISCONN | Unix.EALREADY), _, _) -> ())
  in
  let rec go () =
    try
      match fault_unit Faulty.Connect "connect" (sockaddr_string addr) with
      | `Go ->
          retry ();
          (match !Faulty.state with
          | Some st -> Faulty.register_fd st fd (sockaddr_string addr)
          | None -> ())
      | `Go_then_crash ->
          retry ();
          Faulty.crash ()
    with Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let rec waitpid flags pid =
  try Unix.waitpid flags pid
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid flags pid

let reap pid =
  try ignore (waitpid [] pid)
  with Unix.Unix_error (Unix.ECHILD, _, _) -> ()

let kill pid signal =
  (* kill(0, _) signals our own process group and kill(-n, _) a whole
     group: never what a supervisor holding a child's pid means *)
  if pid <= 0 then invalid_arg (Printf.sprintf "Sysx.kill: pid %d" pid);
  try Unix.kill pid signal
  with Unix.Unix_error (Unix.ESRCH, _, _) -> ()

let sleepf seconds =
  let deadline = Clock.monotonic () +. seconds in
  let rec go remaining =
    if remaining > 0.0 then begin
      (try Unix.sleepf remaining
       with Unix.Unix_error (Unix.EINTR, _, _) -> ());
      go (deadline -. Clock.monotonic ())
    end
  in
  go seconds

(* Waits in short selects rather than a bare accept(2): closing the
   listening fd from another thread does NOT wake a blocked accept on
   Linux, so a stop flag checked only on EINTR can never fire.  Bounded
   waits make the flag effective within one 0.1 s poll. *)
let rec accept ?(stop = fun () -> false) fd =
  if stop () then None
  else
    match Unix.select [ fd ] [] [] 0.1 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept ~stop fd
    | [], _, _ -> accept ~stop fd
    | _ -> (
        match Unix.accept fd with
        | pair -> Some pair
        | exception
            Unix.Unix_error
              ((Unix.EINTR | Unix.EAGAIN | Unix.ECONNABORTED), _, _) ->
            accept ~stop fd)
