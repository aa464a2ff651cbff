module Q = Ncg_rational.Q

type curve = {
  label : string;
  spec : ?sentinel:Sentinel.level -> ?max_retries:int -> int -> Runner.spec;
}

type t = { name : string; envelope : int; curves : curve list }

(* One curve per policy, labelled [prefix ^ policy name]. *)
let policy_curves ?tie_break prefix model generate =
  List.map
    (fun (policy_name, policy) ->
      {
        label = prefix ^ policy_name;
        spec =
          (fun ?sentinel ?max_retries n ->
            Runner.spec ~policy ?tie_break ?sentinel ?max_retries (model n)
              (generate n));
      })
    [ ("max cost", Policy.Max_cost); ("random", Policy.Random_unhappy) ]

let asg name dist =
  {
    name;
    envelope = 5;
    curves =
      List.concat_map
        (fun k ->
          policy_curves (Printf.sprintf "k=%d " k)
            (fun n -> Model.make Model.Asg dist n)
            (fun n rng -> Gen.random_budget_network rng n k))
        [ 1; 2; 3; 4; 5; 6; 10 ];
  }

(* GBG curves over [rows x alpha divisors x policies], where a row is a
   label and an initial-network generator. *)
let gbg name dist rows divisors =
  {
    name;
    envelope = (match dist with Model.Sum -> 7 | Model.Max -> 8);
    curves =
      List.concat_map
        (fun (row, generate) ->
          List.concat_map
            (fun d ->
              let alpha = if d = 1 then "a=n" else Printf.sprintf "a=n/%d" d in
              policy_curves ~tie_break:Engine.Prefer_deletion
                (Printf.sprintf "%s, %s, " row alpha)
                (fun n -> Model.make ~alpha:(Q.make n d) Model.Gbg dist n)
                generate)
            divisors)
        rows;
  }

let m_edges factor =
  ( Printf.sprintf "m=%dn" factor,
    fun n rng -> Gen.random_m_edges rng n (min (factor * n) (n * (n - 1) / 2)) )

let topologies =
  [
    ("random", fun n rng -> Gen.random_m_edges rng n n);
    ("rl", fun n rng -> Gen.random_line rng n);
    ("dl", fun n _ -> Gen.directed_line n);
  ]

let all =
  [
    asg "fig7" Model.Sum;
    asg "fig8" Model.Max;
    gbg "fig11" Model.Sum [ m_edges 1; m_edges 4 ] [ 10; 4; 1 ];
    gbg "fig12" Model.Sum topologies [ 10; 4; 2; 1 ];
    gbg "fig13" Model.Max [ m_edges 1; m_edges 4 ] [ 10; 4; 1 ];
    gbg "fig14" Model.Max topologies [ 10; 4; 2; 1 ];
  ]

let find name = List.find (fun f -> f.name = name) all

let sweep ?domains ?seed ?checkpoint ?incidents ?sentinel ?max_retries ~ns
    ~trials fig =
  List.map
    (fun c ->
      {
        Series.label = c.label;
        points =
          List.map
            (fun n ->
              let spec = c.spec ?sentinel ?max_retries n in
              let key = Printf.sprintf "%s|n=%d" c.label n in
              {
                Series.n;
                summary =
                  Runner.run ?domains ?seed ?checkpoint ~key ?incidents
                    ~trials spec;
              })
            ns;
      })
    fig.curves

let verdicts fig curves =
  let within =
    Printf.sprintf "every run converges within %dn steps" fig.envelope
  in
  let bound n = float_of_int (fig.envelope * n) in
  [
    (within, List.for_all snd (Series.envelope bound within curves));
    ( "no best-response cycle in any trial",
      List.for_all
        (fun (c : Series.curve) ->
          List.for_all
            (fun (p : Series.point) -> p.Series.summary.Stats.cycles = 0)
            c.Series.points)
        curves );
  ]
