(** Bug triage (paper section 6.5): pinpoint the guilty instruction from
    a report's program counter and slice backwards through the def-use
    chain to collect the operations that produced its operands — the
    starting point for locating the incorrect verifier logic. *)

type slice = {
  guilty_pc : int option;
  guilty : Bvf_ebpf.Insn.t option;
  relevant : (int * Bvf_ebpf.Insn.t) list; (** backward def-use slice *)
}

val backward_slice :
  Bvf_ebpf.Insn.t array -> int -> (int * Bvf_ebpf.Insn.t) list
(** Linear backward def-use walk from the given pc. *)

val slice_report :
  Bvf_verifier.Verifier.loaded -> Bvf_kernel.Report.t -> slice

val slice_to_string : slice -> string

(** {1 Harness crashes}

    A supervised worker that dies or hangs is a finding about the
    harness itself — an analyzer bug the in-process runner could never
    report, because it would have died with it.  The supervisor records
    one of these artifacts per kill, quarantines the implicated
    iteration, and reports the set at join; they are never mixed into
    the oracle's verifier-bug findings. *)

type crash_cause =
  | Crash_exit of int    (** worker exited with this non-zero code *)
  | Crash_signal of int  (** worker was killed by this signal *)
  | Crash_hang           (** no heartbeat within the watchdog deadline *)

type harness_crash = {
  hc_worker : int;            (** worker (= shard) index *)
  hc_iteration : int option;
      (** global iteration being executed when the worker died, when
          the heartbeat recorded one *)
  hc_cause : crash_cause;
  hc_restarts : int;          (** restarts of this worker so far *)
}

val harness_crash_to_string : harness_crash -> string

val harness_crash_to_json : harness_crash -> string
(** One flat JSON object (no trailing newline), in the telemetry
    dialect — the supervisor's [crash-NNN.json] artifact format. *)

val harness_crash_of_json : string -> harness_crash option
(** Inverse of {!harness_crash_to_json}; [None] on foreign or
    malformed lines. *)
