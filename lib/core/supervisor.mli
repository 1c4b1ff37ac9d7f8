(** Supervised, crash- and hang-resilient campaign runner.

    {!Parallel} shards a campaign across OCaml domains in one process —
    fast, but a single analyzer crash (or an unbounded analysis the
    {!Bvf_verifier.Venv} budgets somehow miss) takes every shard's
    in-memory state with it.  This module runs the same sharded
    campaign across {b forked OS worker processes} under a watchdog:

    - each worker runs one deterministic shard (seed [seed + i], the
      round-robin split of {!Parallel.shard_iterations}) with
      {!Campaign.run_t}, set up by the same {!Parallel.with_shard} a
      domain uses.  Its own parts ride on [run_t]'s hooks: [skip]
      writes a heartbeat file ([worker-<i>.hb]) before every
      iteration, runs the [fault] hook and skips quarantined
      iterations; [checkpoint] writes the incremental checkpoint
      ([worker-<i>.ckpt]) at every [checkpoint_every] barrier; [stop]
      polls SIGTERM/SIGINT;
    - the supervisor polls heartbeats and child exits: a non-zero
      exit, a fatal signal, or a heartbeat older than [deadline_s]
      kills the worker and restarts it from its last checkpoint with
      exponential backoff;
    - every kill is recorded as a {!Triage.harness_crash} artifact
      ([crash-NNN.json]) and the implicated iteration is {b
      quarantined} ([quarantine.list]): the restarted worker replays
      its segment deterministically but skips the quarantined
      iteration, so a deterministic crasher cannot wedge the pool;
    - a worker that exceeds [max_restarts] is {b retired}: the pool
      shrinks, its last checkpoint still joins the merge, and the
      abandoned remainder of its shard is reported — never silently
      dropped;
    - the final worker checkpoints are folded by {!Parallel.join},
      the join [Parallel.run] uses, so a fault-free supervised run
      produces the same merged stats, digest and trace bytes as
      [Parallel.run ~jobs:workers] (when no barrier lands inside the
      run).

    Rerunning with the same state [dir] resumes every worker from its
    last checkpoint.  See [docs/RESILIENCE.md] for the supervision
    state machine and the exit-code table. *)

(** {1 Worker checkpoints} *)

type worker_snapshot = {
  wk_shard : int;    (** worker (= shard) index *)
  wk_workers : int;  (** pool width the shard was cut for *)
  wk_trace_pos : int;
      (** trace byte offset at the barrier; a restart truncates the
          worker's trace file here so replayed iterations never appear
          twice *)
  wk_snapshot : Campaign.snapshot;  (** local iteration numbering *)
}

val worker_tag : string
(** {!Checkpoint} container tag for worker checkpoint files. *)

val load_worker : path:string -> (worker_snapshot, Checkpoint.error) result

val globalize : worker_snapshot -> Campaign.snapshot
(** Renumber a worker checkpoint to global iterations
    ([local * wk_workers + wk_shard], as {!Parallel.global_iteration}),
    making it mergeable with {!Parallel.merge_snapshots} — the [bvf
    merge] path for checkpoints salvaged from a killed supervised run.
    The result has [sn_merged] set: reportable, not resumable. *)

(** {1 Outcome} *)

type worker_outcome =
  | Outcome_completed    (** finished its shard *)
  | Outcome_retired      (** exceeded [max_restarts]; pool shrank *)
  | Outcome_interrupted  (** stopped by the supervisor's own stop *)

type worker_report = {
  wr_worker : int;
  wr_outcome : worker_outcome;
  wr_assigned : int;   (** local iterations budgeted for the shard *)
  wr_completed : int;  (** local iterations in its final checkpoint *)
  wr_restarts : int;
}

type report = {
  rp_workers : worker_report list;  (** in index order *)
  rp_crashes : Triage.harness_crash list;  (** in occurrence order *)
  rp_quarantined : int list;
      (** global iterations skipped (preloaded + crash-implicated),
          sorted ascending *)
  rp_abandoned : (int * int * int) list;
      (** [(worker, first_local, last_local)] ranges a retired or
          interrupted worker never executed *)
}

type outcome =
  | Completed of Parallel.result * report
      (** every worker completed or retired; the result merges all
          final worker checkpoints *)
  | Interrupted of report
      (** [stop] fired: workers were signalled, saved final
          checkpoints and exited; rerun with the same [dir] to resume,
          or [bvf merge] the worker checkpoints *)

val quarantine_of_file : string -> int list
(** Parse a [quarantine.list]-format file (one global iteration per
    line, [#] comments and blanks ignored); missing file is empty. *)

val pp_report : Format.formatter -> report -> unit

(** {1 Running} *)

val run :
  ?sample_every:int ->
  ?log_level:int ->
  ?trace:string ->
  ?failslab_rate:float ->
  ?failslab_seed:int ->
  ?checkpoint_every:int ->
  ?deadline_s:float ->
  ?poll_s:float ->
  ?max_restarts:int ->
  ?backoff_s:float ->
  ?quarantine:int list ->
  ?fault:(worker:int -> local:int -> global:int -> unit) ->
  ?prof:Bvf_util.Prof.session ->
  ?stop:(unit -> bool) ->
  workers:int -> seed:int -> iterations:int -> dir:string ->
  Campaign.strategy -> Bvf_kernel.Kconfig.t -> outcome
(** Run [iterations] total iterations sharded across [workers] forked
    processes supervised from the calling process, with protocol files
    under [dir] (created if missing).

    [checkpoint_every] (default 1000) is the worker barrier cadence in
    local iterations; [deadline_s] (default 30) the heartbeat watchdog
    deadline; [poll_s] (default 0.05) the supervisor poll interval;
    [max_restarts] (default 5) per-worker restarts before retiring;
    [backoff_s] (default 0.5) the base of the exponential restart
    backoff ([backoff_s * 2^(restarts-1)]).

    [quarantine] preloads global iterations to skip — the chaos
    harness feeds a disturbed run's [quarantine.list] to a fault-free
    reference run to compare digests over the undisturbed set.
    [fault ~worker ~local ~global] is a deterministic fault-injection
    hook run {b in the child} before each non-skipped iteration; tests
    use it to crash, self-kill or hang a chosen iteration.  [stop] is
    polled by the supervisor; when it returns [true] workers receive
    SIGTERM, save and exit — the CLI's SIGINT/SIGTERM path.

    [prof] (default {!Bvf_util.Prof.null}) records the run as profiler
    spans: track [i] carries worker [i]'s "iterate" span with the
    campaign phase, "heartbeat" and "checkpoint" spans nested inside,
    track [workers] the supervisor's fork/restart/join work.  Each
    child records into its own session and hands the spans to the
    parent through a [worker-<i>.prof] protocol file at clean exit
    ({!Bvf_util.Prof.save}); a crashed or interrupted worker leaves no
    profile, so its track is absent rather than partial.  Pure
    observation — a profiled run's digest and trace are byte-identical
    to an unprofiled one.

    The state directory is owned by exactly one live supervisor: a
    [supervisor.lock] file records the owner's pid and is broken only
    when that pid is dead — two supervisors sharing [dir] would treat
    each other's workers as crashed children and clobber the protocol
    files.

    @raise Invalid_argument when [workers < 1].
    @raise Campaign.Environment when [dir] is locked by a running
    supervisor, or when the run completes but no worker ever produced
    a checkpoint to merge. *)
