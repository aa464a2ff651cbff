(** Figure 5 / Theorem 3.7 (SUM): cyclic improving-move dynamics of the
    SUM-ASG at uniform unit budget (search-rediscovered witness; the
    moves are strict improvements, not all best responses — see
    EXPERIMENTS.md). *)

val instance : Instance.t
