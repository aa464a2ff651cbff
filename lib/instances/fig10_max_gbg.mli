(** Figure 10 / Theorem 4.1 (MAX): best-response cycle of the MAX-(G)BG
    for 1 < alpha < 2; Corollary 4.2's host-graph variant. *)

val instance : Instance.t
val host_instance : Instance.t
