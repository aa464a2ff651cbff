(** Fault injection: the auditor's own test oracle.

    Each fault class deliberately breaks one invariant that {!Audit} claims
    to check.  [detected] injects the fault into a copy of a healthy
    network and reports whether the auditor flags the expected violation
    kind — if any class ever goes undetected, the auditor has a blind spot
    and the chaos suite (tests and [tools/chaos_check.exe]) fails. *)

type fault =
  | Drop_half_edge  (** one endpoint forgets an edge the other still has *)
  | Orphan_ownership  (** an edge loses its owner *)
  | Double_ownership  (** both endpoints claim an edge *)
  | Inject_self_loop
  | Disconnect_vertex
      (** legally delete every edge at one vertex — a semantic fault for
          runs that must stay connected *)

val all : fault list

val label : fault -> string

val expected_kind : fault -> Audit.kind
(** The violation kind the auditor must report for this fault. *)

val detected : Model.t -> fault -> Graph.t -> bool
(** [detected model fault g] injects [fault] into a copy of [g] and checks
    that {!Audit.check_graph} (with connectivity required) reports a
    violation of {!expected_kind}.  [g] itself is left untouched. *)

val non_improving_move_detected : Model.t -> Graph.t -> bool
(** The step-contract fault: feed {!Audit.check_move} a move whose cost did
    not decrease (the recorded costs of a genuine improving move, swapped)
    and check it is flagged.  Requires some agent of [g] to be unhappy. *)
