type t = {
  window : float array;
  mutable filled : int;
  mutable next : int;
  mutable ema : float;
  counters : (string, int ref) Hashtbl.t;
}

let create () =
  {
    window = Array.make 1024 0.0;
    filled = 0;
    next = 0;
    ema = 0.0;
    counters = Hashtbl.create 16;
  }

let incr t name =
  match Hashtbl.find_opt t.counters name with
  | Some r -> Stdlib.incr r
  | None -> Hashtbl.add t.counters name (ref 1)

let count t name =
  match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0

let observe t dt =
  let cap = Array.length t.window in
  t.window.(t.next) <- dt;
  t.next <- (t.next + 1) mod cap;
  if t.filled < cap then t.filled <- t.filled + 1;
  t.ema <- (if t.ema = 0.0 then dt else (0.8 *. t.ema) +. (0.2 *. dt))

let ema_service_time t = t.ema
let percentile t q =
  if t.filled = 0 then Float.nan
  else begin
    let a = Array.sub t.window 0 t.filled in
    Array.sort compare a;
    let idx =
      Stdlib.min (t.filled - 1)
        (int_of_float (Float.of_int (t.filled - 1) *. q +. 0.5))
    in
    a.(idx)
  end

let to_json t =
  let counters =
    Hashtbl.fold (fun k r acc -> (k, Json.Int !r) :: acc) t.counters []
    |> List.sort compare
  in
  let num f = if Float.is_finite f then Json.Float f else Json.Null in
  Json.Obj
    [
      ("counters", Json.Obj counters);
      ( "latency",
        Json.Obj
          [
            ("count", Json.Int t.filled);
            ("p50", num (percentile t 0.5));
            ("p99", num (percentile t 0.99));
            ("ema", num t.ema);
          ] );
    ]
