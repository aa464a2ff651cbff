(** Fork-join parallel map over OCaml 5 domains.

    Experiment batches are embarrassingly parallel: each trial owns its RNG
    and its graphs, so a simple chunked [Domain.spawn] fan-out suffices —
    no shared state, no locks.  With [domains = 1] (the default, and the
    right choice on single-core containers) everything runs in the calling
    domain and behaves exactly like [List.map].

    Worker failures are contained: every item's outcome is captured inside
    the domain that ran it, so one raising item can never discard the
    completed work of the other items or the other domains — the failure
    mode that used to abort whole sweeps. *)

val recommended_domains : unit -> int
(** [Domain.recommended_domain_count], capped at 8. *)

val chunk : int -> 'a list -> 'a list list
(** [chunk k items] splits [items] into [k >= 1] contiguous chunks, in order,
    whose lengths differ by at most one (the longer ones first); with
    fewer than [k] items the trailing chunks are empty.  {!map_result}
    gives each domain one such chunk. *)

val map_result :
  ?domains:int -> ('a -> 'b) -> 'a list ->
  ('b, exn * Printexc.raw_backtrace) result list
(** Order-preserving parallel map with per-item fault capture: the result
    for each item is [Ok (f x)], or [Error (exn, backtrace)] if [f x]
    raised.  All items are always attempted.  [domains] defaults to 1. *)

val map : ?domains:int -> ('a -> 'b) -> 'a list -> 'b list
(** Order-preserving parallel map.  [domains] defaults to 1.  If some [f x]
    raises, the first such exception (in item order) re-raises in the
    caller — but only after every domain has finished its chunk; use
    {!map_result} to keep the surviving results. *)

val map_reduce :
  ?domains:int -> map:('a -> 'b) -> combine:('b -> 'b -> 'b) -> 'b ->
  'a list -> 'b
(** [map_reduce ~map ~combine init items] folds [combine] over the mapped
    values, left to right, starting from [init]. *)
