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
    findings), a [checkpoint] hook takes a {!snapshot} at every barrier
    (the {!Parallel} state directory persists it) from which a killed
    campaign continues exactly, and corpus entries implicated in
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
  prof : Bvf_util.Prof.t;
      (** profiler handle for this campaign's domain ([Prof.disabled]
          unless the caller passed a track): its per-name totals
          account the gen/verify/sanitize/exec phases.  Pure
          observation: never touches the RNG, the telemetry sink or the
          digest. *)
  recorder : Bvf_verifier.Coverage.recorder;
      (** notes the coverage hits of each walked analysis *)
  memos : (int, Corpus.entry * Bvf_verifier.Verifier.memo) Hashtbl.t;
      (** the analysis of each live corpus entry, made when the entry
          was added, keyed by [added_at]; a load repeating the entry's
          request is answered from it.  Never in a snapshot, and never
          more entries than the corpus. *)
  mutable memo_loads : int;
      (** loads answered from a memo; in no digest, trace or printed
          line *)
}

(** {1 Snapshots}

    Everything needed to continue a campaign.  The simulated kernel
    itself is deliberately absent: a snapshot is taken at a barrier,
    before its reboot, so a fresh kernel plus the snapshot fully
    determines future behavior — a campaign resumed from it
    ([run_t ~resume_from]) replays the exact continuation of the
    uninterrupted one.  {!Parallel} keeps them on disk. *)

type snapshot = {
  sn_tool : string;
  sn_config : Bvf_kernel.Kconfig.t;
      (** the kernel the campaign runs, injected bug set included *)
  sn_seed : int;
  sn_completed : int; (** iterations finished when taken *)
  sn_merged : bool;
      (** built by [Parallel.merge_states] ([bvf merge]), not taken
          from a live campaign: reportable and re-mergeable, but not
          resumable (there is no RNG stream to continue) *)
  sn_rng : int64;
  sn_failslab : Bvf_kernel.Failslab.t;
  sn_corpus : Corpus.t;
  sn_cov : Bvf_verifier.Coverage.t;
  sn_stats : stats;
}

val snapshot : t -> snapshot

val fresh :
  ?failslab:Bvf_kernel.Failslab.t -> seed:int -> strategy ->
  Bvf_kernel.Kconfig.t -> snapshot
(** The snapshot of a campaign that has not run an iteration (default
    fault plan: off).  Builds no kernel. *)

val run_t :
  ?sample_every:int -> ?telemetry:Telemetry.sink ->
  ?prof:Bvf_util.Prof.t ->
  ?checkpoint_every:int -> ?checkpoint:(t -> unit) ->
  ?failslab:Bvf_kernel.Failslab.t -> ?resume_from:snapshot ->
  ?skip:(int -> bool) -> ?stop:(unit -> bool) ->
  ?on_step:(t -> unit) -> seed:int ->
  iterations:int -> strategy -> Bvf_kernel.Kconfig.t -> t
(** Like {!run} but returns the whole campaign, giving callers (the
    shard executors, tests) access to the final coverage map and corpus
    alongside the stats.  The calling domain runs the campaign under
    {!Bvf_util.Lanes.with_heap_share}: its minor heap is set to its
    lane's share of one budget, and stays there after [run_t] returns
    or raises, so the next call in the domain resizes only when its
    lane count changed. *)

val run :
  ?sample_every:int -> ?telemetry:Telemetry.sink ->
  ?prof:Bvf_util.Prof.t ->
  ?checkpoint_every:int -> ?checkpoint:(t -> unit) ->
  ?failslab:Bvf_kernel.Failslab.t -> ?resume_from:snapshot ->
  ?skip:(int -> bool) -> ?stop:(unit -> bool) ->
  ?on_step:(t -> unit) -> seed:int ->
  iterations:int -> strategy -> Bvf_kernel.Kconfig.t -> stats
(** Drive [iterations] steps, from a fresh campaign or from
    [resume_from], a barrier snapshot (deep-copied first, so resuming
    one in-memory snapshot twice yields independent campaigns; its
    fresh kernel counts as the barrier's reboot); this is the only
    code that steps a campaign.  One iteration generates (or mutates) a program, loads
    and runs it, and classifies the outcome.  Transient environment
    errors are retried (a plain retry, then a reboot before the final
    attempt); fatal reports reboot the kernel and feed the
    reboot-storm breaker.

    Every [checkpoint_every] completed iterations (absolute count, so
    resumed runs hit the same barriers) the campaign calls
    [checkpoint] (if given, after a [Checkpoint] trace event; the
    {!Parallel} shard runner saves the shard's state there) and reboots
    the kernel — the barrier that makes resume deterministic.  The closing coverage sample is deduplicated
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
