(** KASAN-style shadow memory for the simulated kernel address space.

    One shadow byte tracks each 8-byte granule: either the whole granule
    is addressable, only a prefix is, or it is poisoned as redzone,
    freed or unallocated.  The paper's sanitizing functions and the
    KASAN-instrumented kernel routines consult exactly this
    structure. *)

type poison =
  | Addressable of int (** 1..7 valid prefix bytes *)
  | Fully_addressable
  | Redzone
  | Freed
  | Unallocated

type t

val create : unit -> t

val poison_at : t -> int64 -> poison
(** Poison state of the granule containing an address. *)

val unpoison : t -> addr:int64 -> size:int -> unit
(** Mark [size] bytes at the granule-aligned [addr] addressable.
    @raise Invalid_argument on an unaligned base. *)

val poison : t -> addr:int64 -> size:int -> poison -> unit
(** Poison [size] bytes (rounded up to granules) with the given code. *)

type violation = { bad_addr : int64; bad_poison : poison }

val check : t -> addr:int64 -> size:int -> (unit, violation) result
(** KASAN access check: every byte of [addr, addr+size) must be
    addressable; returns the first offending address otherwise. *)

val poison_to_string : poison -> string
