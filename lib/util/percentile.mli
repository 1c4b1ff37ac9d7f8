(** Nearest-rank percentiles.

    The single shared definition of "p50/p95" in the tree: index
    [p*(n-1)/100] of the ascending-sorted sample, so the returned value
    is always a real observation, never an interpolation.  Used by the
    offline summaries that hold their whole sample: telemetry
    distributions, profiler aggregation and perfbench.  Running
    latencies use the fixed-size {!Hist} instead. *)

val of_sorted : float array -> int -> float
(** [of_sorted sorted p] for [sorted] in ascending order and [p] in
    0..100.  Returns [0.0] on an empty array. *)

val of_sorted_int : int array -> int -> int
(** Integer-sample variant; returns [0] on an empty array. *)

val of_samples : float list -> int -> float
(** Convenience: sorts a copy of [samples], then {!of_sorted}. *)
