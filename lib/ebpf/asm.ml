(* Assembler-style construction helpers mirroring the kernel's BPF_*
   macros (include/linux/filter.h), so hand-written test programs read
   close to the listings in the paper. *)

open Insn

let mov64_imm dst imm = Alu { op64 = true; op = Mov; dst; src = Imm imm }
let mov64_reg dst src = Alu { op64 = true; op = Mov; dst; src = Reg src }
let mov32_imm dst imm = Alu { op64 = false; op = Mov; dst; src = Imm imm }
let mov32_reg dst src = Alu { op64 = false; op = Mov; dst; src = Reg src }

let alu64_imm op dst imm = Alu { op64 = true; op; dst; src = Imm imm }
let alu64_reg op dst src = Alu { op64 = true; op; dst; src = Reg src }
let alu32_reg op dst src = Alu { op64 = false; op; dst; src = Reg src }

let ld_imm64 dst v = Ld_imm64 (dst, Const v)
let ld_map_fd dst fd = Ld_imm64 (dst, Map_fd fd)
let ld_map_value dst fd off = Ld_imm64 (dst, Map_value (fd, off))
let ld_btf_obj dst id = Ld_imm64 (dst, Btf_obj id)

let ldx sz dst src off = Ldx { sz; dst; src; off }
let ldx_b dst src off = ldx B dst src off
let ldx_w dst src off = ldx W dst src off
let ldx_dw dst src off = ldx DW dst src off

let st sz dst off imm = St { sz; dst; off; imm }
let st_w dst off imm = st W dst off imm
let st_dw dst off imm = st DW dst off imm

let stx sz dst src off = Stx { sz; dst; src; off }
let stx_w dst src off = stx W dst src off
let stx_dw dst src off = stx DW dst src off

let atomic ?(fetch = false) sz op dst src off =
  Atomic { sz; op; fetch; dst; src; off }

let jmp_imm cond dst imm off = Jmp { op32 = false; cond; dst; src = Imm imm; off }
let jmp_reg cond dst src off = Jmp { op32 = false; cond; dst; src = Reg src; off }
let jmp32_imm cond dst imm off = Jmp { op32 = true; cond; dst; src = Imm imm; off }

let ja off = Ja off
let call id = Call (Helper id)
let call_kfunc id = Call (Kfunc id)
let call_local off = Call (Local off)
let exit_ = Exit

(* Common idiom: return [imm] and exit. *)
let ret imm = [ mov64_imm R0 imm; exit_ ]

let prog (fragments : Insn.t list list) : Insn.t array =
  Array.of_list (List.concat fragments)
