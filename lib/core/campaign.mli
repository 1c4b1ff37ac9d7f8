(** Fuzzing campaign driver: the outer loop of the paper's Figure 3.

    One campaign owns a simulated kernel (recreated when it "crashes",
    like rebooting a fuzzing VM), a coverage map that persists across
    reboots, a corpus of coverage-increasing inputs, and the dedup table
    of findings.  The driver is strategy-parametric, so the same harness
    runs BVF and the Syzkaller/Buzzer baselines under identical
    conditions (section 6.3's methodology).

    Campaigns are built to run for days: a {!Bvf_kernel.Failslab} fault
    plan can be threaded through the simulated kernel (transient
    [-ENOMEM] outcomes are retried and counted, never reported as
    findings), progress is periodically checkpointed to disk and can be
    {!resume}d after a crash or kill, and corpus entries implicated in
    consecutive fatal reboots are quarantined. *)

(** A pluggable generation strategy. *)
type strategy = {
  s_name : string;
  s_feedback : bool; (** coverage-guided corpus mutation *)
  s_generate :
    Rng.t -> Gen.config -> Bvf_verifier.Verifier.request option ->
    Bvf_verifier.Verifier.request;
    (** a corpus seed is supplied when feedback is on *)
}

val bvf_strategy : strategy
(** The paper's tool: structured generation plus coverage feedback. *)

(** A deduplicated finding with discovery metadata. *)
type found = {
  fd_finding : Oracle.finding;
  fd_iteration : int;
  fd_request : Bvf_verifier.Verifier.request;
}

type sample = { sa_iteration : int; sa_edges : int }

type stats = {
  st_tool : string;
  st_version : Bvf_ebpf.Version.t;
  mutable st_generated : int;
  mutable st_accepted : int;
  mutable st_rejected : int;
  st_errno : (Bvf_verifier.Venv.errno, int) Hashtbl.t;
  st_reasons : (Bvf_verifier.Reject_reason.t, int) Hashtbl.t;
      (** rejection taxonomy: how many rejections per reason *)
  st_findings : (string, found) Hashtbl.t;
  mutable st_curve : sample list; (** newest first *)
  mutable st_histogram : Bvf_ebpf.Disasm.class_histogram;
  mutable st_edges : int;
  mutable st_reboots : int;
  mutable st_env_errors : int;
      (** transient environment errors that survived retry *)
  mutable st_retries : int;
      (** transient environment errors retried away *)
  mutable st_quarantined : int;
      (** corpus entries quarantined by the reboot-storm breaker *)
  mutable st_skipped : int;
      (** iterations skipped (the [skip] hook of {!run}) because a
          previous run's harness crash quarantined them; disturbed work
          accounted for, never silently dropped *)
  mutable st_lint : int;
      (** invariant-lint violations observed on accepted programs
          (only when the config enables {!Bvf_kernel.Kconfig.t.lint});
          a verifier-quality signal, never findings *)
  mutable st_gen_s : float;      (** wall time generating programs *)
  mutable st_verify_s : float;   (** wall time in the verifier *)
  mutable st_sanitize_s : float; (** wall time in fixup + sanitation *)
  mutable st_exec_s : float;     (** wall time executing programs *)
  mutable st_gen_w : float;      (** minor words generating programs *)
  mutable st_verify_w : float;   (** minor words in the verifier *)
  mutable st_sanitize_w : float; (** minor words in fixup + sanitation *)
  mutable st_exec_w : float;     (** minor words executing programs.
      Allocation observations like the phase timers above: excluded
      from {!digest}. *)
  st_vstats : Bvf_verifier.Vstats.agg;
      (** veristat-style verifier-counter aggregate over every analysis
          that ran.  Deterministic (no wall times), so part of
          {!digest}; merged across shards like coverage. *)
}

val acceptance_rate : stats -> float
val bugs_found : stats -> Bvf_kernel.Kconfig.bug list
val correctness_bugs_found : stats -> Bvf_kernel.Kconfig.bug list

val fingerprints : stats -> string list
(** Sorted deduplication keys (fingerprint plus attributed bug) of every
    finding — a campaign's findings identity. *)

val plateau : stats -> (int * int) option
(** Coverage-plateau report from the sampled curve: [Some (last_gain,
    stalled)] where [last_gain] is the earliest sampled iteration
    already at the final edge count and [stalled] how many iterations
    ran past it without a new edge.  [None] before any sample exists. *)

val digest : ?exclude_finding:(string -> bool) -> stats -> string
(** Canonical hex digest of everything the campaign observed: counters,
    errno distribution, findings (with discovery iterations) and the
    coverage curve.  Two campaigns with equal digests generated the same
    programs and saw the same outcomes.  [exclude_finding] (default:
    keep everything) drops finding lines whose dedup key matches, so a
    run with an extra report class (e.g. the witness oracle) can be
    compared against one without it. *)

val standard_maps :
  Bvf_runtime.Loader.t -> (int * Bvf_kernel.Map.def) list
(** The session's standard map population: array, hash, spin-lock hash
    and ring buffer.  Under fault injection some creations may fail;
    the session then runs with fewer maps. *)

val is_fatal : Bvf_kernel.Report.t -> bool
(** Reports that leave the simulated kernel unusable (reboot). *)

val is_transient : Bvf_runtime.Loader.run_result -> bool
(** Transient environment errors — injected allocation failures showing
    up as [-ENOMEM] at load or run time.  Eligible for retry, never
    findings. *)

exception Environment of string
(** The campaign cannot continue for environmental reasons (checkpoint
    write failure, resume against a mismatched config).  Distinct from
    any finding: callers should report it and exit nonzero. *)

(** A running campaign. *)
type t = {
  config : Bvf_kernel.Kconfig.t;
  strategy : strategy;
  seed : int;
  rng : Rng.t;
  failslab : Bvf_kernel.Failslab.t;
  cov : Bvf_verifier.Coverage.t;
  corpus : Corpus.t;
  stats : stats;
  mutable session : Bvf_runtime.Loader.t;
  mutable gen_config : Gen.config;
  sample_every : int;
  telemetry : Telemetry.sink;
      (** JSONL event sink; {!Telemetry.null} when not tracing *)
  log_level : int; (** verifier log level for every load (default 0) *)
  prof : Bvf_util.Prof.t;
      (** span-profiler handle for this campaign's domain;
          [Prof.disabled] unless the run opted in.  Pure observation:
          never touches the RNG, the telemetry sink or the digest. *)
}

(** {1 Checkpointing}

    Everything needed to continue a campaign from disk.  The simulated
    kernel itself is deliberately absent: checkpoints are taken at a
    reboot boundary, so a fresh kernel plus the snapshot fully
    determines future behavior — a resumed campaign replays the exact
    continuation of the uninterrupted one. *)

type snapshot = {
  sn_tool : string;
  sn_kernel : Bvf_ebpf.Version.t;
  sn_seed : int;
  sn_sanitize : bool;
  sn_unprivileged : bool;
  sn_witness : bool;
  sn_lint : bool;
  sn_completed : int; (** iterations finished when taken *)
  sn_merged : bool;
      (** built by [Parallel.merge_snapshots] ([bvf merge]), not taken
          from a live campaign: reportable and re-mergeable, but
          {!resume} refuses it (there is no RNG stream to continue) *)
  sn_rng : int64;
  sn_failslab : Bvf_kernel.Failslab.t;
  sn_corpus : Corpus.t;
  sn_cov : Bvf_verifier.Coverage.t;
  sn_stats : stats;
}

val snapshot : t -> snapshot

val save_checkpoint : t -> path:string -> (unit, Checkpoint.error) result

val save_snapshot : snapshot -> path:string -> (unit, Checkpoint.error) result
(** Persist a snapshot value that has no live campaign behind it — the
    [bvf merge] output path. *)

val load_checkpoint : path:string -> (snapshot, Checkpoint.error) result

val resume :
  ?sample_every:int -> ?telemetry:Telemetry.sink -> ?log_level:int ->
  ?prof:Bvf_util.Prof.t ->
  strategy -> Bvf_kernel.Kconfig.t -> snapshot -> t
(** Rebuild a running campaign from a snapshot.  The snapshot value is
    deep-copied first, so resuming the same in-memory snapshot several
    times yields independent campaigns (identical to resuming a
    from-disk checkpoint several times).
    @raise Environment when the snapshot was taken by a different tool,
    kernel version, or config — or is a merged artifact
    ([sn_merged]). *)

val checkpoint_to : string -> t -> unit
(** [checkpoint_to path] is a [checkpoint] hook for {!run}: it saves
    the campaign's snapshot to [path] ({!save_checkpoint}).
    @raise Environment when the write fails. *)

val run_t :
  ?sample_every:int -> ?telemetry:Telemetry.sink -> ?log_level:int ->
  ?prof:Bvf_util.Prof.t ->
  ?checkpoint_every:int -> ?checkpoint:(t -> unit) ->
  ?failslab:Bvf_kernel.Failslab.t -> ?resume_from:snapshot ->
  ?skip:(int -> bool) -> ?stop:(unit -> bool) ->
  ?on_step:(t -> unit) -> seed:int ->
  iterations:int -> strategy -> Bvf_kernel.Kconfig.t -> t
(** Like {!run} but returns the whole campaign, giving callers (the
    shard executors, tests) access to the final coverage map and corpus
    alongside the stats. *)

val run :
  ?sample_every:int -> ?telemetry:Telemetry.sink -> ?log_level:int ->
  ?prof:Bvf_util.Prof.t ->
  ?checkpoint_every:int -> ?checkpoint:(t -> unit) ->
  ?failslab:Bvf_kernel.Failslab.t -> ?resume_from:snapshot ->
  ?skip:(int -> bool) -> ?stop:(unit -> bool) ->
  ?on_step:(t -> unit) -> seed:int ->
  iterations:int -> strategy -> Bvf_kernel.Kconfig.t -> stats
(** Drive [iterations] steps, from a fresh campaign or from
    [resume_from] ({!resume}); this is the only code that steps a
    campaign.  One iteration generates (or mutates) a program, loads
    and runs it, and classifies the outcome.  Transient environment
    errors are retried (a plain retry, then a reboot before the final
    attempt); fatal reports reboot the kernel and feed the
    reboot-storm breaker.

    Every [checkpoint_every] completed iterations (absolute count, so
    resumed runs hit the same barriers) the campaign emits a
    [Checkpoint] trace event, calls [checkpoint] (if given; e.g.
    {!checkpoint_to}) and reboots the kernel — the barrier that makes
    resume deterministic.  The closing coverage sample is deduplicated
    by iteration, so finalizing a campaign twice (or on a sample
    boundary) never records the same iteration twice.

    [skip i] is called before every iteration [i] (the count of
    iterations done so far); when it returns true the iteration is
    skipped instead of run: it consumes exactly the generation-phase
    RNG draws a real iteration would (corpus pick + generate), bumps
    [st_generated]/[st_skipped] and emits a [Quarantined] event, but
    never loads the program.  A supervised restart skipping [i] and a
    fault-free campaign told up front to skip [i] perform the same
    state transition — the harness-crash quarantine.  [stop] is polled
    after every completed iteration; when it returns true the campaign
    runs the barrier sequence (once, even when the stop lands on a
    scheduled barrier) and returns early — the SIGINT/SIGTERM path.
    [on_step] (the [--progress] observer) is called after each
    completed iteration, outside the deterministic core: it must not
    mutate the campaign.
    @raise Environment on checkpoint write failure. *)

val pp_summary : Format.formatter -> stats -> unit
