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

(** {1 Memoised analyses}

    A campaign keeps the analysis of each corpus entry and answers a
    load of the same request from it (DESIGN.md §12).  The analysis is
    a pure function of the program, the config and the session's
    fd -> map definition table, and its only side effect is coverage
    hits, so a memo answers by replaying the hits it recorded; every
    check, both failslab draws, the rewrites, Bug#8 and the prog id run
    as in {!load_with_stats}. *)

type analysis
(** One walk's outcome: verdict, aux data, counters, lint and log.
    Shared by every load a memo answers; nothing writes it after the
    walk. *)

type memo
(** An analysis with its coverage hits, and what it is valid for: the
    coverage map its edge ids belong to, the config, and the session's
    maps. *)

(** How {!load_memo} came by the analysis. *)
type origin =
  | Refused           (** refused before any analysis *)
  | Walked of analysis (** walked, its hits noted in the recorder *)
  | Replayed          (** answered from the memo *)

val load_memo :
  Bvf_kernel.Kstate.t -> cov:Coverage.t -> recorder:Coverage.recorder ->
  memo option -> request ->
  (loaded, Venv.verr) result * string * Vstats.t option * origin
(** {!load_with_stats} at log level 0, with the analysis taken from the
    memo when it is valid (its hits replayed into [cov]), and walked
    otherwise, with its hits noted in [recorder].  A memo is valid
    only in the coverage map it was recorded in, under an equal config,
    while the kernel's fd -> map definition table equals the one it was
    made with (a reboot whose map setup failslab cut short differs);
    this is checked at every load. *)

val memo :
  Bvf_kernel.Kstate.t -> cov:Coverage.t -> Coverage.recorder -> analysis ->
  memo
(** The memo of a walked analysis: [recorder] must still hold that
    walk's hits in [cov], and [kst] be the kernel it ran on. *)

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
    maps, kernel config).  These fingerprints canonicalize the config
    and the maps for the service layer's content-addressed verdict
    cache, which adds the program's wire bytes ([Vcache.key];
    see docs/SERVICE.md for the soundness argument). *)

val config_fingerprint : Bvf_kernel.Kconfig.t -> string
(** Hex digest of every config field verification depends on (version,
    sorted bug registry, sanitize/unprivileged/lint/witness switches)
    plus {!verifier_abi}. *)

val maps_fingerprint : (int * Bvf_kernel.Map.def) list -> string
(** Hex digest of a session's map population — (fd, definition) pairs,
    sorted by fd.  Programs reference maps by fd, so two sessions with
    equal fingerprints resolve every map reference identically. *)
