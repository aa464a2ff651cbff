(** Figure 9 / Theorem 4.1 (SUM): best-response cycle of the SUM-(G)BG
    for 7 < alpha < 8; Corollary 4.2's host-graph variant. *)

val instance : Instance.t
val host_instance : Instance.t
