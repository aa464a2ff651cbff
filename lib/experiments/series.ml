type point = { n : int; summary : Ncg_core.Stats.summary }

type curve = { label : string; points : point list }

let value_of kind (p : point) =
  match kind with
  | `Avg -> p.summary.Ncg_core.Stats.avg_steps
  | `Max -> float_of_int p.summary.Ncg_core.Stats.max_steps

let envelope f desc curves =
  List.map
    (fun c ->
      let ok =
        List.for_all
          (fun p ->
            let s = p.summary in
            s.Ncg_core.Stats.converged = s.Ncg_core.Stats.runs
            && float_of_int s.Ncg_core.Stats.max_steps <= f p.n)
          c.points
      in
      (Printf.sprintf "%s: %s" c.label desc, ok))
    curves

let max_over curves =
  List.fold_left
    (fun acc c ->
      List.fold_left
        (fun acc p ->
          if p.n = 0 then acc
          else
            max acc
              (float_of_int p.summary.Ncg_core.Stats.max_steps
              /. float_of_int p.n))
        acc c.points)
    0.0 curves

let unconverged curves =
  List.fold_left
    (fun acc c ->
      List.fold_left
        (fun acc p ->
          acc + p.summary.Ncg_core.Stats.runs
          - p.summary.Ncg_core.Stats.converged)
        acc c.points)
    0 curves

let all_ns curves =
  List.sort_uniq compare
    (List.concat_map (fun c -> List.map (fun p -> p.n) c.points) curves)

let to_table ?(value = `Max) curves =
  let buf = Buffer.create 1024 in
  (* wide enough that every label keeps at least one space before it *)
  let width =
    List.fold_left (fun w c -> max w (String.length c.label + 1)) 14 curves
  in
  let pad s = Printf.sprintf "%*s" width s in
  Buffer.add_string buf (pad "n");
  List.iter (fun c -> Buffer.add_string buf (pad c.label)) curves;
  Buffer.add_char buf '\n';
  List.iter
    (fun n ->
      Buffer.add_string buf (pad (string_of_int n));
      List.iter
        (fun c ->
          match List.find_opt (fun p -> p.n = n) c.points with
          | None -> Buffer.add_string buf (pad "-")
          | Some p -> Buffer.add_string buf (pad (Printf.sprintf "%.1f" (value_of value p))))
        curves;
      Buffer.add_char buf '\n')
    (all_ns curves);
  Buffer.contents buf

let to_gnuplot ?(value = `Max) curves =
  let buf = Buffer.create 1024 in
  List.iter
    (fun c ->
      Buffer.add_string buf (Printf.sprintf "# %s\n" c.label);
      List.iter
        (fun p ->
          Buffer.add_string buf
            (Printf.sprintf "%d %.3f\n" p.n (value_of value p)))
        c.points;
      Buffer.add_string buf "\n\n")
    curves;
  Buffer.contents buf

let write_gnuplot path ?value curves =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_gnuplot ?value curves))
