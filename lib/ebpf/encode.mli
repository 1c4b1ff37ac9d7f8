(** Binary (wire) encoding of eBPF programs, byte-compatible with the
    kernel's [struct bpf_insn] layout:

    {v opcode:8 | dst:4 src:4 | off:16 LE | imm:32 LE v}

    LD_IMM64 occupies two slots.  Since {!Insn.t} programs are
    element-based, [encode] and [decode] translate every branch offset
    between element units and slot units. *)

val encode : Insn.t array -> Bytes.t
(** Lower a structured program to its wire format.
    @raise Invalid_argument if a branch escapes the program. *)

(** Decode failure: the offending slot index and a reason. *)
type error = { pos : int; reason : string }

val decode : Bytes.t -> (Insn.t array, error) result
(** Parse a wire-format program.  Rejects unknown opcodes, invalid
    registers, truncated or malformed LD_IMM64 pairs (the second slot
    must be zero in every field but [imm], as the kernel demands), and
    branches into the middle of an LD_IMM64. *)

(** {2 Raw slot encoding}

    Exposed for tests and for byte-level fuzzers (Buzzer's random
    mode). *)

type raw = { op : int; dst : int; src : int; off : int; imm : int32 }

val raw_to_bytes : Bytes.t -> int -> raw -> unit
val raw_of_bytes : Bytes.t -> int -> raw
