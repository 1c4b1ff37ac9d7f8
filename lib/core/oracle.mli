(** The test oracle (paper section 3): a kernel report raised by a
    program the verifier ACCEPTED is, by construction, a correctness bug
    in the verifier — indicator #1 when the program's own instructions
    misbehaved (caught by the sanitation), indicator #2 when a kernel
    routine it invoked misbehaved (caught by a kernel self-check). *)

type indicator =
  | Ind1 (** invalid load/store or alu_limit violation in the program *)
  | Ind2 (** anomaly inside an invoked kernel routine *)
  | Ind3 (** concrete value escaped the verifier's recorded bounds
             (the witness oracle) *)

type finding = {
  f_indicator : indicator option; (** [None]: program was rejected *)
  f_report : Bvf_kernel.Report.t;
  f_bug : Bvf_kernel.Kconfig.bug option; (** ground-truth attribution *)
  f_fingerprint : string;
  f_correctness : bool; (** a verifier correctness bug? *)
}

val classify_indicator : Bvf_kernel.Report.t -> indicator

val attribute :
  Bvf_kernel.Kconfig.t -> Bvf_kernel.Report.t ->
  Bvf_kernel.Kconfig.bug option
(** Which injected bug (of those present in the config) explains the
    report — the automated stand-in for the paper's manual triage in
    the Table 2 experiment. *)

val classify :
  Bvf_kernel.Kconfig.t -> Bvf_runtime.Loader.run_result -> finding list
(** Classify the outcome of one load(+run) cycle. *)

val finding_to_string : finding -> string
