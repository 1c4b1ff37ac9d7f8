(** Deterministic PRNG (splitmix64) so fuzzing campaigns, tests and
    benches are reproducible from a seed. *)

type t

val create : int -> t
val next : t -> int64

val state : t -> int64
(** Snapshot of the stream position (the whole generator state). *)

val of_state : int64 -> t
(** Resume a stream from a {!state} snapshot: the restored generator
    produces exactly the continuation of the snapshotted one. *)

val int : t -> int -> int
(** Uniform in [\[0, n)].  @raise Invalid_argument when [n <= 0]. *)

val bool : t -> bool

val chance : t -> float -> bool
(** True with probability [p]. *)

val choose : t -> 'a list -> 'a
val choose_opt : t -> 'a list -> 'a option

val pick : t -> 'a array -> 'a
(** [pick t a] = [choose t (Array.to_list a)], with the same draw.
    @raise Invalid_argument on an empty array. *)

val choose_bit : t -> int -> int
(** [choose_bit t mask] (for [mask >= 0]) is the bit index
    [choose_opt t l] would pick, [l] being the set bits of [mask] listed
    highest first, and it makes the same draw; -1 (and no draw) when
    [mask = 0].  Builds no list. *)

val weighted : t -> (int * 'a) list -> 'a
(** Weighted choice; zero-weight entries are never picked. *)

val interesting_int64 : int64 list
(** Boundary and magic constants that historically find bugs. *)

val interesting : t -> int64
