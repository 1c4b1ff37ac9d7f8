(** Simulated kernel memory: an allocator handing out regions of a
    64-bit address space with backing bytes, KASAN shadow tracking and
    redzones.

    Two access disciplines exist, mirroring the real kernel:
    - [checked_*]: the KASAN-instrumented path used by kernel routines
      and the paper's bpf_asan functions; violations produce faults;
    - [raw_*]: what natively-JITed eBPF code does — accesses landing in
      any region (live or freed) or a redzone are {e silent}, only the
      null page and wholly unmapped addresses fault.  This asymmetry is
      why verifier correctness bugs are hard to observe without the
      paper's sanitation. *)

(** What a region backs. *)
type kind =
  | Stack of int
  | Ctx
  | Map_array of int
  | Map_elem of int
  | Ringbuf_chunk of int
  | Btf_object of string
  | Packet
  | Kernel_internal of string

type region = {
  base : int64;
  size : int;
  data : Bytes.t;
  rkind : kind;
  mutable live : bool;
}

type t

val create : unit -> t

val alloc : t -> kind:kind -> size:int -> region
(** Allocate a zeroed region, unpoisoning its shadow and poisoning the
    surrounding redzone. *)

val free : t -> region -> unit
(** Poison the region as freed (use-after-free detection). *)

val compact : ?keep_freed:int -> t -> unit
(** Reclaim old freed regions so long-lived fuzzing sessions stay
    bounded; the most recent [keep_freed] stay poisoned as freed. *)

val region_of : t -> int64 -> region option
(** The region (live or freed) containing an address. *)

type access = Read | Write

type fault_kind =
  | Null_deref
  | Oob of Shadow.poison
  | Page_fault

type fault = {
  faccess : access;
  faddr : int64;
  fsize : int;
  fkind : fault_kind;
  fregion : string option;
}

val fault_to_string : fault -> string

val null_page_limit : int64

val check : t -> access -> addr:int64 -> size:int -> (unit, fault) result
(** KASAN validity check against shadow memory (no data access). *)

val checked_load : t -> addr:int64 -> size:int -> (int64, fault) result
val checked_store :
  t -> addr:int64 -> size:int -> int64 -> (unit, fault) result

val raw_load : t -> addr:int64 -> size:int -> (int64, fault) result
(** Native-code semantics: silent garbage in redzones and freed memory;
    faults only on the null page or unmapped addresses. *)

val raw_store : t -> addr:int64 -> size:int -> int64 -> (unit, fault) result
