(** The paper's memory-access sanitation pass (section 4.2): after
    verification, every necessary load/store is prefixed with a dispatch
    to a KASAN-instrumented kernel function, entirely at the eBPF
    instruction level (Figure 5):

    {v r11 = r1 ; r1 = <addr> ; r1 += <off> ; call bpf_asan_load64 ;
       r1 = r11 ; <original access> v}

    ALU instructions carrying an [alu_limit] annotation additionally get
    the inline [assert(offset <= limit)] sequence.  Skipped, per the
    paper's footprint-reduction strategy: R10-relative constant
    accesses, rewrite-emitted instructions, and BTF-pointer loads
    (exception-tabled probe reads get the tolerant check instead). *)

type guard_kind = Gload | Gstore | Gprobe

val run :
  insns:Bvf_ebpf.Insn.t array -> aux:Venv.aux array ->
  Bvf_ebpf.Insn.t array * Venv.aux array
