(** Assembler-style construction helpers mirroring the kernel's BPF_*
    macros, so hand-written programs read close to the paper's
    listings. *)

open Insn

val mov64_imm : reg -> int32 -> t
val mov64_reg : reg -> reg -> t
val mov32_imm : reg -> int32 -> t
val mov32_reg : reg -> reg -> t

val alu64_imm : alu_op -> reg -> int32 -> t
val alu64_reg : alu_op -> reg -> reg -> t
val alu32_reg : alu_op -> reg -> reg -> t

val ld_imm64 : reg -> int64 -> t
val ld_map_fd : reg -> int -> t
val ld_map_value : reg -> int -> int -> t
val ld_btf_obj : reg -> int -> t

val ldx : size -> reg -> reg -> int -> t
(** [ldx sz dst src off]: [dst = *(sz * )(src + off)]. *)

val ldx_b : reg -> reg -> int -> t
val ldx_w : reg -> reg -> int -> t
val ldx_dw : reg -> reg -> int -> t

val st : size -> reg -> int -> int32 -> t
(** [st sz dst off imm]: [*(sz * )(dst + off) = imm]. *)

val st_w : reg -> int -> int32 -> t
val st_dw : reg -> int -> int32 -> t

val stx : size -> reg -> reg -> int -> t
(** [stx sz dst src off]: [*(sz * )(dst + off) = src]. *)

val stx_w : reg -> reg -> int -> t
val stx_dw : reg -> reg -> int -> t

val atomic : ?fetch:bool -> size -> atomic_op -> reg -> reg -> int -> t

val jmp_imm : cond -> reg -> int32 -> int -> t
(** [jmp_imm cond dst imm off]: [if dst cond imm goto +off]. *)

val jmp_reg : cond -> reg -> reg -> int -> t
val jmp32_imm : cond -> reg -> int32 -> int -> t

val ja : int -> t
val call : int -> t
val call_kfunc : int -> t
val call_local : int -> t
val exit_ : t

val ret : int32 -> t list
(** [ret imm] is the [r0 = imm; exit] epilogue. *)

val prog : t list list -> t array
(** Concatenate fragments into a program. *)
