(* Nearest-rank percentile over a pre-sorted sample.  One shared
   definition so every consumer of a full sample (telemetry
   distributions, profiler aggregation, perfbench) picks the same
   element: index p*(n-1)/100 of the ascending-sorted array.  Deliberately not
   interpolating — the value returned is always a real observation. *)

let of_sorted (sorted : float array) (p : int) : float =
  let n = Array.length sorted in
  if n = 0 then 0.0 else sorted.(p * (n - 1) / 100)

let of_sorted_int (sorted : int array) (p : int) : int =
  let n = Array.length sorted in
  if n = 0 then 0 else sorted.(p * (n - 1) / 100)

let of_samples (samples : float list) (p : int) : float =
  let a = Array.of_list samples in
  Array.sort compare a;
  of_sorted a p
