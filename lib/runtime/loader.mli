(** Session: one simulated kernel instance plus the programs loaded and
    attached into it — the equivalent of a fuzzer's long-lived test VM.
    The full bpf() load path runs here: map setup, verification,
    rewrite, sanitation, attachment (tracepoints / XDP dispatcher) and
    execution with event dispatch to attached programs. *)

type t = {
  kst : Bvf_kernel.Kstate.t;
  cov : Bvf_verifier.Coverage.t;
  mutable attached : (string * Bvf_verifier.Verifier.loaded) list;
  mutable event_depth : int;
}

val create :
  ?cov:Bvf_verifier.Coverage.t -> ?failslab:Bvf_kernel.Failslab.t ->
  Bvf_kernel.Kconfig.t -> t
(** A fresh session.  [failslab] (default: disabled) is the campaign's
    fault-injection plan; it is shared, not copied, so its decision
    stream continues across session reboots. *)

val create_map : t -> Bvf_kernel.Map.def -> int
(** Create a map in the session's kernel; returns the fd. *)

val try_create_map : t -> Bvf_kernel.Map.def -> int option
(** Fallible {!create_map}: [None] is the BPF_MAP_CREATE syscall's
    -ENOMEM under fault injection. *)

(** Result of one load(+run) cycle. *)
type run_result = {
  verdict : (Bvf_verifier.Verifier.loaded, Bvf_verifier.Venv.verr) result;
  status : Exec.status option; (** [None] if never executed *)
  reports : Bvf_kernel.Report.t list; (** all new kernel reports *)
  insns_executed : int;
  witness : Bvf_kernel.Report.t list;
      (** witness-oracle escapes, when the config records witnesses *)
  verify_s : float;  (** wall time spent verifying *)
  sanitize_s : float;(** wall time of the fixup + sanitation rewrites *)
  exec_s : float;    (** wall time executing; 0 when rejected *)
  verify_w : float;  (** minor words allocated verifying *)
  sanitize_w : float;(** minor words of the fixup + sanitation rewrites *)
  exec_w : float;    (** minor words allocated executing *)
  vlog : string;     (** verifier log, whatever the verdict *)
  vstats : Bvf_verifier.Vstats.t option;
      (** veristat-style verifier performance counters; [None] when the
          load failed before analysis *)
}

val attach : t -> Bvf_verifier.Verifier.loaded -> unit
(** Register a program at its attach point (or the XDP dispatcher,
    arming the Bug#7 window). *)

val execute : t -> Bvf_verifier.Verifier.loaded -> Exec.result
(** Run a loaded program: XDP goes through the dispatcher; tracing
    programs also get one triggering of their attach point in its
    execution context. *)

val load_and_run :
  ?prof:Bvf_util.Prof.t -> t -> Bvf_verifier.Verifier.request ->
  run_result
(** The complete cycle the fuzzer performs for each generated input,
    with the verifier log off.  [prof] (default: disabled) records
    "verify" and "exec" spans, with sanitation charged as a post-hoc
    child of the verify span. *)

val load_and_run_memo :
  ?prof:Bvf_util.Prof.t -> t -> recorder:Bvf_verifier.Coverage.recorder ->
  Bvf_verifier.Verifier.memo option -> Bvf_verifier.Verifier.request ->
  run_result * Bvf_verifier.Verifier.origin
(** {!load_and_run} through {!Bvf_verifier.Verifier.load_memo}: the
    analysis comes from the memo when it is valid for this session, and
    is walked with its hits noted in [recorder] otherwise.  The result
    is the one {!load_and_run} gives. *)
