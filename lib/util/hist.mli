(** Fixed-bucket integer histograms.

    A histogram over strictly ascending upper bounds
    [b.(0) < ... < b.(k-1)] has bucket [0] for the values below [b.(0)],
    bucket [i] for [[b.(i-1), b.(i))] and bucket [k] for the values from
    [b.(k-1)] up: [k + 1] counters whatever the number of samples.
    Exact percentiles over a full sample stay in {!Percentile}. *)

type t

val create : int array -> t
(** Empty buckets over a strictly ascending ladder (shared, never
    mutated). *)

val index : t -> int -> int
(** The bucket a value falls in. *)

val add : t -> int -> unit
(** Count one sample.  Allocates nothing. *)

val absorb : t -> t -> unit
(** [absorb into src]: as if every sample of [src] were added to [into].
    @raise Invalid_argument when the ladders differ. *)

val total : t -> int

val upper : t -> int -> int
(** Bucket [i]'s upper bound: [b.(i)], or [max_int] for the last. *)

val quantile : t -> int -> int
(** [quantile h p], [p] in 0..100: the {!upper} bound of the bucket
    holding {!Percentile}'s nearest-rank sample, so at most one ladder
    step above it.  [0] when empty. *)

val count_le : t -> int -> int
(** The samples in buckets whose upper bound is at most [x]: for a
    bound [x], exactly the samples below [x]. *)

val buckets : t -> (int * int) list
(** The non-empty buckets as ascending [(index, count)] pairs. *)
