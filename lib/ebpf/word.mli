(** 64/32-bit machine-word arithmetic shared by the verifier's abstract
    domain and the concrete interpreter.

    eBPF semantics reminders: ALU32 operations compute on the low 32 bits
    and zero-extend into the destination; division by zero yields 0 and
    modulo by zero keeps the dividend; shift amounts are masked to the
    operand width. *)

val to_u32 : int64 -> int64
(** Zero-extended low 32 bits. *)

val sext8 : int64 -> int64
val sext16 : int64 -> int64
val sext32 : int64 -> int64

val zext : int -> int64 -> int64
(** [zext bits x] zero-extends the low [bits] bits of [x]. *)

val zext8 : int64 -> int64
val zext16 : int64 -> int64

val ult : int64 -> int64 -> bool
val ule : int64 -> int64 -> bool
val ugt : int64 -> int64 -> bool
val uge : int64 -> int64 -> bool

val umin : int64 -> int64 -> int64
val umax : int64 -> int64 -> int64
val smin : int64 -> int64 -> int64
val smax : int64 -> int64 -> int64

val udiv : int64 -> int64 -> int64
(** eBPF unsigned division: [udiv x 0 = 0]. *)

val umod : int64 -> int64 -> int64
(** eBPF unsigned modulo: [umod x 0 = x]. *)

val sdiv : int64 -> int64 -> int64
(** Signed division with eBPF edge cases ([min_int / -1 = min_int]). *)

val smod : int64 -> int64 -> int64

val shl64 : int64 -> int64 -> int64
(** Left shift; the amount is masked to 6 bits. *)

val shr64 : int64 -> int64 -> int64
val ashr64 : int64 -> int64 -> int64

val shl32 : int64 -> int64 -> int64
(** 32-bit left shift of the low word, zero-extended; amount masked to 5
    bits. *)

val shr32 : int64 -> int64 -> int64
val ashr32 : int64 -> int64 -> int64

val bswap16 : int64 -> int64
val bswap32 : int64 -> int64
val bswap64 : int64 -> int64

val get_le : Bytes.t -> int -> int -> int64
(** [get_le buf off size] reads a little-endian [size]-byte value. *)

val set_le : Bytes.t -> int -> int -> int64 -> unit
(** [set_le buf off size v] writes a little-endian [size]-byte value. *)
