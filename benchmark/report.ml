(* Summary statistics, process memory and the result line. *)

module Json = Ncg_service.Json

let now = Ncg_experiments.Clock.monotonic

(* Time [f ()] on the monotonic clock: (result, seconds). *)
let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Linear interpolation between closest ranks; [nan] on no samples. *)
let quantile samples q =
  let a = Array.copy samples in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median samples = quantile samples 0.5

let sum = Array.fold_left ( +. ) 0.0

let mean samples =
  if Array.length samples = 0 then Float.nan
  else sum samples /. float_of_int (Array.length samples)

(* [a / b], or 0 when there is nothing to divide. *)
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Peak resident set size (VmHWM) of a process, in MiB. *)
let peak_rss_mib pid =
  let path =
    match pid with
    | None -> "/proc/self/status"
    | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  let ic = open_in path in
  let rec find () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
    | _ -> find ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

(* What one workload run reports: [attempted] operations (steps, trials or
   jobs), of which [failed] failed; [correct] is false when any output
   check failed. *)
type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
}

(* Every metric on its own line, then the result object as the last line
   of standard output.  A metric that is not a finite number makes the
   run incorrect: JSON has no rendering for it. *)
let print { correct; attempted; failed; metrics } =
  let correct = correct && List.for_all (fun m -> Float.is_finite m.value) metrics in
  List.iter
    (fun m -> Printf.printf "%-32s %20.6f %s\n" m.name m.value m.unit_)
    metrics;
  let obj =
    Json.Obj
      [
        ("correct", Json.Bool correct);
        ("attempted", Json.Int attempted);
        ("failed", Json.Int failed);
        ( "metrics",
          Json.Obj
            (List.map
               (fun m ->
                 ( m.name,
                   Json.Obj
                     [ ("value", Json.Float m.value); ("unit", Json.Str m.unit_) ]
                 ))
               metrics) );
      ]
  in
  print_endline (Json.to_string obj);
  correct
