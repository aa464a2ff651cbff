(** Figure 6 / Theorem 3.7 (MAX): a best-response cycle of the MAX-ASG
    where every agent owns exactly one edge — the uniform unit-budget
    case of Ehsani et al.'s open problem. *)

val instance : Instance.t
