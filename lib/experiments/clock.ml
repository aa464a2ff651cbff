(* The monotonic clock lives in the core library, where the engines' time
   budgets read it; this path stays for the supervisors, the tools and the
   benchmark. *)
include Ncg_core.Clock
