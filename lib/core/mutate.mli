(** Mutation operators over generated programs.  Block duplication (the
    paper's way of simulating unrolled loops), immediate and offset
    nudging towards interesting values, register swaps and tail
    truncation with a valid epilogue. *)

val duplicate_block : Rng.t -> Bvf_ebpf.Insn.t array -> Bvf_ebpf.Insn.t array
(** Duplicate a short adjacent block whose branches stay inside it. *)

val truncate : Rng.t -> Bvf_ebpf.Insn.t array -> Bvf_ebpf.Insn.t array

val mutate : Rng.t -> Bvf_ebpf.Insn.t array -> Bvf_ebpf.Insn.t array
(** Apply one random mutation. *)

val mutate_request :
  Rng.t -> version:Bvf_ebpf.Version.t -> Bvf_verifier.Verifier.request ->
  Bvf_verifier.Verifier.request
(** Mutate a full request, occasionally re-targeting the attach point. *)
