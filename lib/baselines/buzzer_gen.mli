(** Buzzer-style generation, reproducing both modes the paper measured
    (section 6.3): fully random bytes (~1% acceptance) and the
    ALU/JMP-only mode (~97% acceptance, ≥88% ALU/JMP instructions,
    touching almost none of the interesting verifier logic). *)

type mode = Random_bytes | Alu_jmp

val generate :
  mode -> Bvf_core.Rng.t -> Bvf_core.Gen.config ->
  Bvf_verifier.Verifier.request

val expected_rejections : mode -> Bvf_verifier.Reject_reason.t list
(** The rejection reasons each mode is expected to produce, in rough
    frequency order: [Random_bytes] dies structurally (undecodable
    opcodes dominate, so [Bad_insn]/[Bad_cfg] lead), while [Alu_jmp]
    is rejected almost only for control-flow reasons.  Neither mode
    may produce [Unknown] — that is a taxonomy gap the telemetry test
    turns into a failure. *)

val strategy : ?mode:mode -> unit -> Bvf_core.Campaign.strategy
(** Defaults to [Alu_jmp], the mode the paper's coverage comparison
    uses. *)
