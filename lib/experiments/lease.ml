let magic = "# ncg-lease v1"

type status = Pending | Running | Done | Quarantined

type t = {
  shard : int;
  lo : int;
  hi : int;
  status : status;
  owner : int;
  heartbeat : float;
  attempts : int;
}

let status_label = function
  | Pending -> "pending"
  | Running -> "running"
  | Done -> "done"
  | Quarantined -> "quarantined"

let status_of_label = function
  | "pending" -> Some Pending
  | "running" -> Some Running
  | "done" -> Some Done
  | "quarantined" -> Some Quarantined
  | _ -> None

let path ~dir ~shard = Filename.concat dir (Printf.sprintf "shard-%04d.lease" shard)

let encode t =
  Printf.sprintf "%d\t%d\t%d\t%s\t%d\t%.6f\t%d" t.shard t.lo t.hi
    (status_label t.status) t.owner t.heartbeat t.attempts

let decode payload =
  match String.split_on_char '\t' payload with
  | [ shard; lo; hi; status; owner; heartbeat; attempts ] -> (
      match
        ( int_of_string_opt shard,
          int_of_string_opt lo,
          int_of_string_opt hi,
          status_of_label status,
          int_of_string_opt owner,
          float_of_string_opt heartbeat,
          int_of_string_opt attempts )
      with
      | Some shard, Some lo, Some hi, Some status, Some owner, Some heartbeat,
        Some attempts ->
          Some { shard; lo; hi; status; owner; heartbeat; attempts }
      | _ -> None)
  | _ -> None

(* The lease is the fencing token: a published lease whose bytes could
   vanish in a power failure would let a fenced-out worker resurrect, so
   it is only ever replaced whole and durably.  The worker (heartbeating)
   and the supervisor (reassigning) may save concurrently; the last
   rename wins. *)
let save ~dir ~fingerprint t =
  Durable.replace (path ~dir ~shard:t.shard)
    (Durable.framed
       ~header:(Printf.sprintf "%s\t%s\n" magic (String.escaped fingerprint))
       [ encode t ])

let load ~dir ~fingerprint ~shard =
  let p = path ~dir ~shard in
  match Durable.read p with
  | exception Unix.Unix_error (e, _, _) ->
      Error (Printf.sprintf "%s: %s" p (Unix.error_message e))
  | None | Some (_, []) -> Error "truncated lease file"
  | Some (header, (_, body) :: _) -> (
      if header <> magic ^ "\t" ^ String.escaped fingerprint then
        Error "not a lease of this fleet (header mismatch)"
      else
        match Durable.unframe body with
        | Error reason -> Error reason
        | Ok payload -> (
            match decode payload with
            | None -> Error "undecodable lease payload"
            | Some t when t.shard <> shard ->
                Error
                  (Printf.sprintf "lease names shard %d, not %d" t.shard shard)
            | Some t -> Ok t))

let expired ~now ~timeout t =
  t.status = Running && now -. t.heartbeat > timeout
