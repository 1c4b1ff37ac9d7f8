(** Tristate numbers: the verifier's bit-level abstract domain, a port of
    the kernel's lib/tnum.c.

    A value [{value; mask}] represents every concrete 64-bit word that
    agrees with [value] on the bits cleared in [mask]; set mask bits are
    unknown.  Invariant: [value land mask = 0]. *)

type t = { value : int64; mask : int64 }

val const : int64 -> t
val unknown : t

val is_const : t -> bool
val is_unknown : t -> bool

val contains : t -> int64 -> bool
(** Does the abstract value contain the concrete word? *)

val subset : of_:t -> t -> bool
(** [subset ~of_:a b]: every concrete value of [b] is one of [a]. *)

val equal : t -> t -> bool

val umin : t -> int64
(** Smallest unsigned member. *)

val umax : t -> int64
(** Largest unsigned member. *)

val range : min:int64 -> max:int64 -> t
(** Tightest tnum containing the unsigned interval (kernel
    [tnum_range]). *)

val intersect_range : t -> min:int64 -> max:int64 -> t
(** [intersect t (range ~min ~max)]; [t] itself (physically) when the
    range refines nothing. *)

val lshift : t -> int -> t
val rshift : t -> int -> t

val arshift : t -> int -> bits:int -> t
(** Arithmetic shift right interpreted at [bits] (32 or 64). *)

val add : t -> t -> t
val sub : t -> t -> t
val and_ : t -> t -> t
val or_ : t -> t -> t
val xor : t -> t -> t

val mul : t -> t -> t
(** Kernel [tnum_mul]: certain bits of the multiplier contribute the
    shifted multiplicand, uncertain bits a fully unknown value of its
    magnitude. *)

val intersect : t -> t -> t
(** Both operands are known to hold. *)

val union : t -> t -> t
(** Join: either operand may hold. *)

val widen : t -> t -> t
(** [widen a b]: widening join for loop heads.  Contains [union a b];
    any bit newly unknown relative to [a] is smeared into every lower
    bit position, so a chain [widen (widen a b) c ...] stabilizes in at
    most O(log 64) steps instead of one per bit. *)

val cast : t -> size:int -> t
(** Truncate to the low [size] bytes, zero-extended. *)

val is_aligned : t -> int64 -> bool
val to_string : t -> string
