let key g =
  let buf = Buffer.create (16 + (Graph.m g * 6)) in
  Buffer.add_string buf (string_of_int (Graph.n g));
  Graph.iter_edges
    (fun u v o ->
      Buffer.add_char buf ';';
      Buffer.add_string buf (string_of_int u);
      Buffer.add_char buf ',';
      Buffer.add_string buf (string_of_int v);
      Buffer.add_char buf (if o = u then '<' else '>'))
    g;
  Buffer.contents buf

let unowned_key g =
  let buf = Buffer.create (16 + (Graph.m g * 6)) in
  Buffer.add_string buf (string_of_int (Graph.n g));
  Graph.iter_edges
    (fun u v _ ->
      Buffer.add_char buf ';';
      Buffer.add_string buf (string_of_int u);
      Buffer.add_char buf ',';
      Buffer.add_string buf (string_of_int v))
    g;
  Buffer.contents buf

let state_key ~owned g = if owned then key g else unowned_key g

let relabel g f =
  let n = Graph.n g in
  if Array.length f <> n then invalid_arg "Canonical.relabel: size mismatch";
  let seen = Array.make n false in
  Array.iter
    (fun v ->
      if v < 0 || v >= n || seen.(v) then
        invalid_arg "Canonical.relabel: not a permutation";
      seen.(v) <- true)
    f;
  let h = Graph.create n in
  Graph.iter_edges (fun u v o -> Graph.add_edge h ~owner:f.(o) f.(u) f.(v)) g;
  h

(* ------------------------------------------------------------------ *)
(* Canonical form under isomorphism                                    *)
(* ------------------------------------------------------------------ *)

exception Budget_exceeded

(* Individualization-refinement canonical labeling (the classical
   McKay-style scheme, sized for this library's graphs).

   A {e leaf} of the search tree is a full placement of the vertices
   into positions [0..n-1]; its encoding lists, row by row, the
   relation of each newly placed vertex to every earlier one
   ('.': none, '=': edge, ownership ignored, '<': edge owned by the
   earlier vertex, '>': owned by the later).  The canonical form is the
   leaf with the lexicographically least encoding — but only leaves the
   tree generates are considered, and the tree is built exclusively
   from isomorphism-invariant operations: 1-WL color refinement, and
   branching restricted to the minimal non-singleton color class.  Two
   isomorphic graphs therefore generate trees whose leaves carry the
   same encoding multiset, so the minimum is a true canonical form.

   Three prunings keep the tree small: strictly-worse partial
   encodings are abandoned; refinement often forces most placements
   (singleton classes); and every pair of equal-encoding leaves yields
   an automorphism, used to skip candidates equivalent to an
   already-explored sibling (the standard defence against the k! blowup
   of symmetric graphs — cliques, stars, leaf-twins of trees).  [budget]
   bounds the node count; pathological symmetry past it raises
   {!Budget_exceeded} rather than stalling the caller. *)
let canonical_map ?(respect_ownership = true) ?(budget = 200_000) g =
  let n = Graph.n g in
  if n = 0 then [||]
  else begin
    (* pair codes, looked up both ways: 0 none, 1 plain edge,
       2 owner = row vertex, 3 owner = column vertex *)
    let code = Bytes.make (n * n) '\000' in
    Graph.iter_edges
      (fun u v o ->
        let set a b c = Bytes.set code ((a * n) + b) c in
        if respect_ownership then begin
          set u v (if o = u then '\002' else '\003');
          set v u (if o = v then '\002' else '\003')
        end
        else begin
          set u v '\001';
          set v u '\001'
        end)
      g;
    let rel_char ~later ~earlier =
      match Bytes.get code ((later * n) + earlier) with
      | '\000' -> '.'
      | '\001' -> '='
      | '\002' -> '>' (* the later-placed endpoint owns the edge *)
      | _ -> '<'
    in
    let nbrs = Array.init n (Graph.neighbors g) in
    let class_count colors =
      let seen = Hashtbl.create 16 in
      Array.iter (fun c -> Hashtbl.replace seen c ()) colors;
      Hashtbl.length seen
    in
    (* 1-WL refinement to a fixpoint; new color ids are dense, assigned
       in signature order so they are isomorphism-invariant. *)
    let refine colors =
      let continue_ = ref true in
      while !continue_ do
        let before = class_count colors in
        let sigs =
          Array.init n (fun v ->
              ( colors.(v),
                List.sort compare
                  (List.map
                     (fun u -> (colors.(u), Bytes.get code ((v * n) + u)))
                     nbrs.(v)) ))
        in
        let order =
          List.sort compare (List.init n (fun v -> (sigs.(v), v)))
        in
        let id = ref (-1) and prev = ref None in
        List.iter
          (fun (sg, v) ->
            (match !prev with
            | Some p when p = sg -> ()
            | _ ->
                incr id;
                prev := Some sg);
            colors.(v) <- !id)
          order;
        continue_ := class_count colors > before
      done
    in
    let total = n * (n - 1) / 2 in
    let enc = Bytes.create total in
    let place = Array.make n (-1) in
    let placed = Array.make n false in
    let best_enc = ref "" and best_perm = Array.make n (-1) in
    let have_best = ref false in
    let gens = ref [] and ngens = ref 0 in
    let max_gens = 512 in
    (* Orbit partition of the discovered automorphism group (union-find):
       sound for pruning at the root, where any automorphism maps one
       untried branch onto a tried one. *)
    let orbit = Array.init n (fun v -> v) in
    let rec find v = if orbit.(v) = v then v else find orbit.(v) in
    let union a b =
      let ra = find a and rb = find b in
      if ra <> rb then orbit.(ra) <- rb
    in
    let nodes = ref 0 in
    let write_row k v =
      let off = k * (k - 1) / 2 in
      for j = 0 to k - 1 do
        Bytes.set enc (off + j) (rel_char ~later:v ~earlier:place.(j))
      done
    in
    (* row of position k vs the best encoding's same slice *)
    let cmp_row k =
      let off = k * (k - 1) / 2 in
      let rec go j =
        if j >= k then 0
        else
          let c = Char.compare (Bytes.get enc (off + j)) !best_enc.[off + j] in
          if c <> 0 then c else go (j + 1)
      in
      go 0
    in
    let record_automorphism () =
      let a = Array.make n (-1) in
      Array.iteri (fun i v -> a.(v) <- place.(i)) best_perm;
      if Array.for_all (fun x -> x >= 0) a then begin
        if !ngens < max_gens then begin
          gens := a :: !gens;
          incr ngens
        end;
        Array.iteri (fun v w -> if v <> w then union v w) a
      end
    in
    (* At the root every automorphism maps an untried branch onto a
       tried one, so the orbit partition (closed under composition)
       prunes.  Deeper, only generators fixing the placed prefix
       pointwise are valid witnesses. *)
    let pruned k tried v =
      if k = 0 then List.exists (fun t -> find t = find v) tried
      else
        List.exists
          (fun a ->
            let prefix_fixed = ref true in
            for j = 0 to k - 1 do
              if a.(place.(j)) <> place.(j) then prefix_fixed := false
            done;
            !prefix_fixed && List.exists (fun t -> a.(t) = v) tried)
          !gens
    in
    (* status: [`Equal] — current prefix matches the best encoding, rows
       can prune; [`Free] — no best yet, or the prefix already differs
       (comparisons are meaningless until the leaf).

       [down]/[try_candidate] return a backjump target depth ([n] when
       none): a leaf equal to the best yields an automorphism fixing the
       common prefix of the two paths pointwise and mapping the best
       path's branch onto the current one at their deepest common node,
       so everything still unexplored strictly below that node is the
       automorphic image of already-covered leaves.  The search unwinds
       straight to it (nauty's backjump) — without this, the sibling
       subtrees of a symmetric graph re-enumerate each other and the
       tree goes factorial (a 40-leaf star never terminates). *)
    let rec down k colors status =
      incr nodes;
      if !nodes > budget then raise Budget_exceeded;
      if k = n then begin
        let e = Bytes.to_string enc in
        if not !have_best then begin
          best_enc := e;
          Array.blit place 0 best_perm 0 n;
          have_best := true;
          n
        end
        else
          let c = compare e !best_enc in
          if c < 0 then begin
            best_enc := e;
            Array.blit place 0 best_perm 0 n;
            n
          end
          else if c = 0 then begin
            record_automorphism ();
            let d = ref 0 in
            while !d < n && place.(!d) = best_perm.(!d) do
              incr d
            done;
            !d
          end
          else n
      end
      else begin
        (* next position's class: minimal color among unplaced *)
        let min_color = ref max_int in
        Array.iteri
          (fun v c ->
            if (not placed.(v)) && c < !min_color then min_color := c)
          colors;
        let members =
          List.filter
            (fun v -> (not placed.(v)) && colors.(v) = !min_color)
            (List.init n (fun v -> v))
        in
        match members with
        | [ v ] -> try_candidate k colors status v
        | _ ->
            let tried = ref [] in
            let jump = ref n in
            (try
               List.iter
                 (fun v ->
                   if not (pruned k !tried v) then begin
                     let r = try_candidate k colors status v in
                     tried := v :: !tried;
                     if r < k then begin
                       jump := r;
                       raise Exit
                     end
                   end)
                 members
             with Exit -> ());
            !jump
      end
    and try_candidate k colors status v =
      place.(k) <- v;
      placed.(v) <- true;
      write_row k v;
      let status =
        match status with
        | `Equal when !have_best -> (
            match cmp_row k with
            | c when c > 0 -> `Prune
            | 0 -> `Equal
            | _ -> `Free)
        | s -> s
      in
      let r =
        if status = `Prune then n
        else begin
          let colors' = Array.copy colors in
          colors'.(v) <- -(k + 1);
          refine colors';
          down (k + 1) colors' status
        end
      in
      place.(k) <- -1;
      placed.(v) <- false;
      r
    in
    let colors = Array.make n 0 in
    refine colors;
    ignore (down 0 colors `Equal);
    (* best_perm : position -> vertex; return vertex -> position *)
    let f = Array.make n (-1) in
    Array.iteri (fun pos v -> f.(v) <- pos) best_perm;
    f
  end

let normal_form ?respect_ownership ?budget g =
  relabel g (canonical_map ?respect_ownership ?budget g)

let iso_key ?(respect_ownership = true) ?budget g =
  state_key ~owned:respect_ownership (normal_form ~respect_ownership ?budget g)

(* Both graphs relabelled onto the same normal form: [p_g] carries [g]
   onto it and [p_h] carries [h] onto it, so [p_h^-1 . p_g] carries [g]
   onto [h]. *)
let isomorphism ?(respect_ownership = true) g h =
  let n = Graph.n g in
  if n <> Graph.n h || Graph.m g <> Graph.m h then None
  else
    let p_g = canonical_map ~respect_ownership g in
    let p_h = canonical_map ~respect_ownership h in
    let form g p = state_key ~owned:respect_ownership (relabel g p) in
    if form g p_g <> form h p_h then None
    else begin
      let inv = Array.make n 0 in
      Array.iteri (fun v pos -> inv.(pos) <- v) p_h;
      Some (Array.map (fun pos -> inv.(pos)) p_g)
    end
