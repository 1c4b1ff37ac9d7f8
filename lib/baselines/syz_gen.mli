(** Syzkaller-style generation: encoding-valid instructions assembled
    from syscall-description-shaped templates and random fields, with no
    register-state tracking — the baseline of the paper's section 6.3
    whose acceptance rate sits at roughly half of BVF's and whose
    rejections are dominated by EACCES/EINVAL. *)

val generate :
  Bvf_core.Rng.t -> Bvf_core.Gen.config -> Bvf_verifier.Verifier.request
(** One random BPF_PROG_LOAD request: minimal seed programs, template
    fragments with randomized fields, or fully random instruction
    runs. *)

val expected_rejections : Bvf_verifier.Reject_reason.t list
(** The rejection reasons this generator is expected to produce, in
    rough frequency order.  Random template-shaped generation with no
    register-state tracking can trip almost the whole taxonomy; the
    documented point is what it {e cannot} produce: [Env_failure]
    (not a program property) and [Unknown] (a taxonomy gap — the
    telemetry test fails if one appears). *)

val strategy : Bvf_core.Campaign.strategy
