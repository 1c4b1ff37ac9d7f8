(** Program-level pretty printing (numbered listings with helper names
    resolved) and instruction-class statistics used by the acceptance
    experiment. *)

val insn_to_string : Insn.t -> string
(** Like {!Insn.to_string} but resolving helper and kfunc names. *)

val prog_to_string : Insn.t array -> string

(** Instruction class counts. *)
type class_histogram = {
  alu : int;
  jmp : int;
  load : int;
  store : int;
  call : int;
  other : int;
}

val empty_histogram : class_histogram
val add_histogram : class_histogram -> Insn.t array -> class_histogram
(** [h] plus the instruction classes of [prog], allocating one
    record. *)

val histogram : Insn.t array -> class_histogram

val alu_jmp_ratio : class_histogram -> float
(** Fraction of ALU+JMP instructions: the section 6.3 Buzzer
    statistic. *)
