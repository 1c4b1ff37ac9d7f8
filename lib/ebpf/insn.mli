(** Structured representation of the eBPF instruction set.

    Programs are arrays of {!t}.  Unlike the raw binary encoding, where
    LD_IMM64 occupies two 8-byte slots, each element here is one logical
    instruction and all branch offsets are measured in {e elements}
    relative to the following instruction.  {!Encode} translates to and
    from the slot-based wire encoding, including offset adjustment. *)

(** Registers.  [R0]-[R9] are program-visible, [R10] is the read-only
    frame pointer, and [R11] is the hidden auxiliary register only the
    sanitation rewrite may use. *)
type reg = R0 | R1 | R2 | R3 | R4 | R5 | R6 | R7 | R8 | R9 | R10 | R11

val reg_to_int : reg -> int
val reg_of_int : int -> reg option

val all_regs : reg list
(** Program-visible registers, [R0]-[R10]. *)

(** Access widths: byte, half word, word, double word. *)
type size = B | H | W | DW

val size_bytes : size -> int

(** ALU operation codes (BPF_ADD .. BPF_ARSH plus BPF_MOV). *)
type alu_op =
  | Add | Sub | Mul | Div | Or | And | Lsh | Rsh | Neg | Mod | Xor
  | Mov | Arsh

val alu_op_to_string : alu_op -> string

(** Conditional jump codes. *)
type cond =
  | Jeq | Jne | Jgt | Jge | Jlt | Jle | Jsgt | Jsge | Jslt | Jsle | Jset

val cond_to_string : cond -> string

val cond_negate : cond -> cond
(** Logical negation; [Jset] has no exact negation and maps to itself. *)

(** Second operand: 32-bit immediate or register. *)
type src = Imm of int32 | Reg of reg

(** Pseudo-relocations carried by LD_IMM64, mirroring the kernel's
    src_reg pseudo values.  [Btf_obj] plays the role of
    BPF_PSEUDO_BTF_ID: the address of a typed kernel object the program
    may use without a null check. *)
type ld64_kind =
  | Const of int64
  | Map_fd of int
  | Map_value of int * int (** map fd, offset into the value *)
  | Btf_obj of int         (** BTF object id in the simulated kernel *)

(** Call targets: helpers by stable id, kernel functions (kfuncs), and
    bpf-to-bpf subprogram calls (element offset, like a jump). *)
type call_target =
  | Helper of int
  | Kfunc of int
  | Local of int

(** Atomic read-modify-write operations. *)
type atomic_op = A_add | A_or | A_and | A_xor | A_xchg | A_cmpxchg

(** One eBPF instruction. *)
type t =
  | Alu of { op64 : bool; op : alu_op; dst : reg; src : src }
  | Endian of { swap : bool; bits : int; dst : reg }
      (** bswap16/32/64; [swap]=false is the to-little no-op *)
  | Ld_imm64 of reg * ld64_kind
  | Ldx of { sz : size; dst : reg; src : reg; off : int }
  | St of { sz : size; dst : reg; off : int; imm : int32 }
  | Stx of { sz : size; dst : reg; src : reg; off : int }
  | Atomic of
      { sz : size; op : atomic_op; fetch : bool; dst : reg; src : reg;
        off : int }
  | Jmp of { op32 : bool; cond : cond; dst : reg; src : src; off : int }
  | Ja of int
  | Call of call_target
  | Exit

val slots : t -> int
(** 8-byte slots in the wire encoding: 2 for [Ld_imm64], 1 otherwise. *)

val prog_slots : t array -> int

val reads_reg : t -> reg -> bool
(** Does the instruction consume the register's value?  (Calls read
    [R1]-[R5], a cmpxchg reads [R0].)  Allocation-free. *)

val writes_reg : t -> reg -> bool
(** May the instruction write the register?  (Calls clobber
    [R0]-[R5].)  Allocation-free. *)

val regs_read : t -> reg list
(** [reads_reg] as a list, in register order. *)

val regs_written : t -> reg list
(** [writes_reg] as a list, in register order. *)

val array_of_rev_list : t list -> t array
(** [Array.of_list (List.rev l)], built without forcing a minor
    collection (see DESIGN.md section 8). *)

val equal : t -> t -> bool
val to_string : t -> string
