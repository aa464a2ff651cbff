(* In-memory span recorder for the traced replica step.

   Every span is one call (or group of calls) into a layer, stamped with
   the monotonic clock and linked to the span that caused it: a phase span
   points at its step span, a distance-cache patch at the move apply that
   triggered it.  Spans stay in growable arrays until the run ends; the
   per-layer numbers are then computed from them, and [dump] writes them
   out as JSON lines. *)

type phase =
  | Step  (** one whole engine step — the root of every other span *)
  | Ctx  (** [Response.Fast.of_cache] and the prefilter switch *)
  | Board  (** cost-board refresh: [Distcache.iter_dirty]/[Costboard.update]/[cost_key] *)
  | Select  (** [Policy.select_sublinear]/[select_fast], witness probes included *)
  | Scan  (** [Response.Fast.best_moves]/[improving_moves] *)
  | Tie  (** tie-break draw and effect classification *)
  | Pin  (** [Move.touched] + [Distcache.ensure]/[pin], and the unpins *)
  | Apply  (** [Move.apply_observed], self time only *)
  | Patch  (** [Distcache.note_added]/[note_removed], children of [Apply] *)
  | Clear  (** [Witness.clear] *)
  | Key  (** [Canonical.key] and the visited-state lookup *)

let phases = [| Step; Ctx; Board; Select; Scan; Tie; Pin; Apply; Patch; Clear; Key |]

let index = function
  | Step -> 0
  | Ctx -> 1
  | Board -> 2
  | Select -> 3
  | Scan -> 4
  | Tie -> 5
  | Pin -> 6
  | Apply -> 7
  | Patch -> 8
  | Clear -> 9
  | Key -> 10

let name = function
  | Step -> "step"
  | Ctx -> "ctx"
  | Board -> "board"
  | Select -> "select"
  | Scan -> "scan"
  | Tie -> "tie"
  | Pin -> "pin"
  | Apply -> "apply"
  | Patch -> "patch"
  | Clear -> "clear"
  | Key -> "key"

let now = Ncg_experiments.Clock.monotonic

type t = {
  mutable len : int;
  mutable phase : int array;
  mutable parent : int array;  (* span index, -1 for a step *)
  mutable trial : int array;  (* which trial of the run the span belongs to *)
  mutable t0 : float array;
  mutable t1 : float array;
  mutable current_trial : int;
}

let create () =
  let cap = 4096 in
  {
    len = 0;
    phase = Array.make cap 0;
    parent = Array.make cap (-1);
    trial = Array.make cap 0;
    t0 = Array.make cap 0.0;
    t1 = Array.make cap 0.0;
    current_trial = 0;
  }

let next_trial t = t.current_trial <- t.current_trial + 1

let grow t =
  let cap = 2 * Array.length t.phase in
  let ext a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  in
  t.phase <- ext t.phase 0;
  t.parent <- ext t.parent (-1);
  t.trial <- ext t.trial 0;
  t.t0 <- ext t.t0 0.0;
  t.t1 <- ext t.t1 0.0

(* Open a span; returns its index, to be closed by [close]. *)
let open_ t phase ~parent =
  if t.len = Array.length t.phase then grow t;
  let i = t.len in
  t.len <- i + 1;
  t.phase.(i) <- index phase;
  t.parent.(i) <- parent;
  t.trial.(i) <- t.current_trial;
  t.t0.(i) <- now ();
  i

let close t i = t.t1.(i) <- now ()

let span t phase ~parent f =
  let i = open_ t phase ~parent in
  match f () with
  | r ->
      close t i;
      r
  | exception e ->
      close t i;
      raise e

let duration t i = t.t1.(i) -. t.t0.(i)

(* Self time of every phase, summed over the run: a span's duration minus
   the part of it its children cover. *)
let self_times t =
  let self = Array.init t.len (duration t) in
  for i = 0 to t.len - 1 do
    let p = t.parent.(i) in
    if p >= 0 then self.(p) <- self.(p) -. duration t i
  done;
  let totals = Array.make (Array.length phases) 0.0 in
  Array.iteri (fun i s -> totals.(t.phase.(i)) <- totals.(t.phase.(i)) +. s) self;
  fun phase -> totals.(index phase)

(* Durations of all step spans, in recording order. *)
let step_durations t =
  let acc = ref [] in
  for i = t.len - 1 downto 0 do
    if t.phase.(i) = index Step then acc := duration t i :: !acc
  done;
  Array.of_list !acc

let dump t path =
  let oc = open_out path in
  for i = 0 to t.len - 1 do
    Printf.fprintf oc
      "{\"id\":%d,\"parent\":%d,\"trial\":%d,\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f}\n"
      i t.parent.(i) t.trial.(i)
      (name phases.(t.phase.(i)))
      t.t0.(i) t.t1.(i)
  done;
  close_out oc
