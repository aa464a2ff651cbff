external monotonic : unit -> float = "ncg_clock_monotonic"
