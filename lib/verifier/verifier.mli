(** Public entry point: the bpf(BPF_PROG_LOAD) pipeline.

    {v structural checks -> attach validation -> abstract interpretation
       -> fixup rewrites -> (optional) bpf_asan sanitation -> loaded v}

    Carries two injected non-verifier bugs from the paper's Table 2: the
    Bug#8 kmemdup-above-kmalloc-limit splat in the syscall path, and the
    acceptance of device-offloaded XDP programs that arms Bug#11 in the
    runtime. *)

(** A load request, as userspace would issue it. *)
type request = {
  r_prog_type : Bvf_ebpf.Prog.prog_type;
  r_attach : string option;  (** attach point name *)
  r_offload : bool;          (** XDP: target a device, not the host *)
  r_insns : Bvf_ebpf.Insn.t array;
}

val request :
  ?attach:string option -> ?offload:bool -> Bvf_ebpf.Prog.prog_type ->
  Bvf_ebpf.Insn.t array -> request

(** A verified, rewritten, (optionally) sanitized program. *)
type loaded = {
  l_id : int;
  l_insns : Bvf_ebpf.Insn.t array; (** post-rewrite instruction stream *)
  l_aux : Venv.aux array;          (** aligned auxiliary data *)
  l_prog_type : Bvf_ebpf.Prog.prog_type;
  l_attach : Bvf_kernel.Tracepoint.t option;
  l_offload : bool;
  l_orig_len : int;
  l_log : string;                  (** verifier log *)
  l_insn_processed : int;          (** verification effort *)
  l_lint : Invariants.violation list;
      (** invariant-lint violations (capped), when [Kconfig.lint] *)
  l_lint_count : int;              (** total violations incl. dropped *)
  l_sanitize_s : float;
      (** wall time of the fixup + sanitation rewrites, for phase
          profiling (the rest of the load span is verification) *)
  l_sanitize_w : float;
      (** minor words allocated by those rewrites, for phase-level
          allocation attribution *)
  l_vstats : Vstats.t;
      (** veristat-style performance counters of the analysis *)
}

val kmalloc_max : int
(** Allocation limit of the Bug#8 kmemdup path, in bytes. *)

val uses_reserved : Bvf_ebpf.Insn.t array -> bool
(** Does the program reference the hidden register or internal
    helpers? *)

val load :
  Bvf_kernel.Kstate.t -> cov:Coverage.t -> ?log_level:int -> request ->
  (loaded, Venv.verr) result
(** The full pipeline. *)

val load_with_stats :
  Bvf_kernel.Kstate.t -> cov:Coverage.t -> ?log_level:int -> request ->
  (loaded, Venv.verr) result * string * Vstats.t option
(** {!load}, also returning the verifier log whatever the verdict — the
    kernel copies the log buffer back to user space on rejection too;
    [bvf explain] and rejected-program tracing use it — and the
    veristat-style performance counters whenever the analysis ran.  The
    log is empty and the counters [None] when the load failed before a
    verification environment existed (structural checks, privilege, fd
    resolution, injected allocation faults) — a rejected program that
    reached the analysis still reports the effort spent rejecting it,
    exactly like the kernel's verifier stats. *)

val verify :
  Bvf_kernel.Kstate.t -> cov:Coverage.t -> ?log_level:int -> request ->
  (unit, Venv.verr) result
(** Verification only (no rewrites): used by tests and the acceptance
    experiment. *)

val lint :
  Bvf_kernel.Kstate.t -> cov:Coverage.t -> request ->
  (unit, Venv.verr) result * Invariants.violation list * int
(** Verification plus invariant-lint results, whatever the verdict:
    the [bvf lint] entry point.  Requires a [Kconfig.lint]-enabled
    kernel state to record anything. *)

(** {1 Stable fingerprints (the verdict-cache key pieces)}

    Verification is deterministic: verdict, canonical message, log and
    performance counters are a pure function of (program, resolvable
    maps, kernel config).  These fingerprints canonicalize exactly those
    inputs for the service layer's content-addressed verdict cache
    (see docs/SERVICE.md for the soundness argument). *)

val verifier_abi : string
(** Analyzer revision baked into {!config_fingerprint}.  Bump whenever a
    verifier change can alter any verdict, canonical message, log line
    or deterministic counter for a fixed input: every previously cached
    verdict is then invalidated by key mismatch. *)

val request_canonical : request -> string
(** Canonical byte serialization of a load request: prog type, attach
    point, offload flag, then the program's wire encoding
    ({!Bvf_ebpf.Encode.encode}; programs whose branches escape the
    instruction array fall back to a structural serialization so the
    function is total). *)

val add_request_canonical : Buffer.t -> request -> unit
(** Append {!request_canonical} to a buffer, so a caller can digest it
    together with other key parts without an extra copy. *)

val request_fingerprint : request -> string
(** Hex digest of {!request_canonical}. *)

val config_fingerprint : Bvf_kernel.Kconfig.t -> string
(** Hex digest of every config field verification depends on (version,
    sorted bug registry, sanitize/unprivileged/lint/witness switches)
    plus {!verifier_abi}. *)

val maps_fingerprint : (int * Bvf_kernel.Map.def) list -> string
(** Hex digest of a session's map population — (fd, definition) pairs,
    sorted by fd.  Programs reference maps by fd, so two sessions with
    equal fingerprints resolve every map reference identically. *)
