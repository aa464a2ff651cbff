type t = {
  moves : Move.t option array;
  mutable hits : int;
  mutable scans : int;
}

let create n =
  if n < 0 then invalid_arg "Witness.create";
  { moves = Array.make (max 1 n) None; hits = 0; scans = 0 }

(* Return the table to its freshly-created state so an arena can hand it to
   the next trial: every remembered move is dropped and the counters
   zeroed, making per-trial hit/scan stats identical to a solo run's. *)
let reset t =
  Array.fill t.moves 0 (Array.length t.moves) None;
  t.hits <- 0;
  t.scans <- 0

let get t u = t.moves.(u)
let clear t u = t.moves.(u) <- None
let hits t = t.hits
let scans t = t.scans
let skips _ = 0

let probe t ctx u =
  let full_scan () =
    t.scans <- t.scans + 1;
    match Response.Fast.find_improving ctx u with
    | Some e ->
        t.moves.(u) <- Some e.Response.move;
        true
    | None ->
        t.moves.(u) <- None;
        false
  in
  match t.moves.(u) with
  | Some m when Move.agent m = u -> (
      match Response.Fast.revalidate ctx m with
      | Some _ ->
          t.hits <- t.hits + 1;
          true
      | None ->
          (* Stale witness: the network moved on.  Forget it and fall back
             to the full scan (which re-caches whatever it finds). *)
          t.moves.(u) <- None;
          full_scan ())
  | Some _ | None -> full_scan ()
