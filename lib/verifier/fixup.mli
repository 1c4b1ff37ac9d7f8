(** Post-verification rewrite passes (the kernel's convert_ctx_accesses
    / do_misc_fixups, scaled down): LD_IMM64 pseudo-relocations are
    resolved to concrete kernel addresses, and division/modulo gain the
    zero-divisor guard sequences — a realistic source of
    rewrite-emitted instructions the sanitizer must skip. *)

val run :
  Bvf_kernel.Kstate.t -> insns:Bvf_ebpf.Insn.t array ->
  aux:Venv.aux array -> Bvf_ebpf.Insn.t array * Venv.aux array
